type error =
  | Corrupt of { offset : int; reason : string }
  | Io_failure of string

exception Error of error

let error_to_string = function
  | Corrupt { offset; reason } ->
    Printf.sprintf "corrupt journal at byte %d: %s" offset reason
  | Io_failure msg -> Printf.sprintf "journal I/O failure: %s" msg

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Fpva_util.Journal.Error (%s)" (error_to_string e))
    | _ -> None)

let io_fail fmt = Printf.ksprintf (fun s -> raise (Error (Io_failure s))) fmt

let records_c = Trace.counter "journal.records"
let fsynced_c = Trace.counter "journal.bytes_fsynced"
let recover_complete_c = Trace.counter "journal.recover_complete"
let recover_torn_c = Trace.counter "journal.recover_torn"

(* ---------- CRC-32 (IEEE 802.3) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---------- framing ---------- *)

let magic = "FPVAJRN1"
let magic_len = 8
let header_len = 8 (* u32 payload length + u32 crc *)
let max_record_len = 1 lsl 28

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* ---------- injectable io ---------- *)

type io = {
  write : bytes -> int -> int -> int;
  sync : unit -> unit;
  close : unit -> unit;
}

let file_io fd =
  {
    write = (fun b off len -> Unix.write fd b off len);
    sync = (fun () -> Unix.fsync fd);
    close = (fun () -> Unix.close fd);
  }

(* Push every byte through the io, looping over short writes and
   retrying EINTR; any other failure is surfaced typed. *)
let write_all io buf off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n =
      try io.write buf !off !len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Error _ as e -> raise e
      | Unix.Unix_error (e, fn, _) ->
        io_fail "%s: %s" fn (Unix.error_message e)
      | exn -> io_fail "write: %s" (Printexc.to_string exn)
    in
    if n < 0 || n > !len then io_fail "writer returned invalid count %d" n;
    off := !off + n;
    len := !len - n
  done

let sync_io io =
  try io.sync () with
  | Error _ as e -> raise e
  | Unix.Unix_error (e, fn, _) -> io_fail "%s: %s" fn (Unix.error_message e)
  | exn -> io_fail "fsync: %s" (Printexc.to_string exn)

(* ---------- writer ---------- *)

type writer = {
  io : io;
  sync_every : int;
  mutable pending : int;  (* appends since the last sync *)
  mutable records : int;
  mutable bytes : int;
  mutable synced_bytes : int;
  mutable closed : bool;
}

let records_written w = w.records

let sync w =
  if w.closed then io_fail "sync on closed writer";
  sync_io w.io;
  Trace.add fsynced_c (w.bytes - w.synced_bytes);
  w.synced_bytes <- w.bytes;
  w.pending <- 0

let append w payload =
  if w.closed then io_fail "append on closed writer";
  let len = String.length payload in
  if len > max_record_len then
    io_fail "record of %d bytes exceeds the %d-byte cap" len max_record_len;
  let buf = Buffer.create (header_len + len) in
  put_u32 buf len;
  put_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  let b = Buffer.to_bytes buf in
  write_all w.io b 0 (Bytes.length b);
  w.bytes <- w.bytes + Bytes.length b;
  w.records <- w.records + 1;
  w.pending <- w.pending + 1;
  Trace.incr records_c;
  if w.sync_every > 0 && w.pending >= w.sync_every then sync w

let close w =
  if not w.closed then begin
    let sync_err = try sync w; None with Error e -> Some e in
    w.closed <- true;
    (try w.io.close () with
    | Error _ as e -> raise e
    | exn -> io_fail "close: %s" (Printexc.to_string exn));
    match sync_err with None -> () | Some e -> raise (Error e)
  end

(* ---------- recovery ---------- *)

type recovery = Fresh | Complete | Torn of { dropped_bytes : int }

type recovered = {
  records : string list;
  valid_len : int;
  recovery : recovery;
}

let scan image =
  let len = String.length image in
  if len = 0 then Ok { records = []; valid_len = 0; recovery = Fresh }
  else if len < magic_len then
    if String.sub magic 0 len = image then
      (* Crash while writing the magic header of a brand-new journal:
         zero records existed, so this is a torn (empty) journal, not
         corruption. *)
      Ok { records = []; valid_len = 0; recovery = Torn { dropped_bytes = len } }
    else Stdlib.Error (Corrupt { offset = 0; reason = "bad magic" })
  else if String.sub image 0 magic_len <> magic then
    Stdlib.Error (Corrupt { offset = 0; reason = "bad magic" })
  else begin
    let rec walk pos acc =
      if pos = len then
        Ok { records = List.rev acc; valid_len = pos; recovery = Complete }
      else if len - pos < header_len then
        Ok
          {
            records = List.rev acc;
            valid_len = pos;
            recovery = Torn { dropped_bytes = len - pos };
          }
      else
        let rlen = get_u32 image pos in
        let crc = get_u32 image (pos + 4) in
        if rlen > max_record_len then
          Stdlib.Error
            (Corrupt
               {
                 offset = pos;
                 reason =
                   Printf.sprintf "record length %d exceeds the %d-byte cap"
                     rlen max_record_len;
               })
        else if len - pos - header_len < rlen then
          Ok
            {
              records = List.rev acc;
              valid_len = pos;
              recovery = Torn { dropped_bytes = len - pos };
            }
        else
          let payload = String.sub image (pos + header_len) rlen in
          if crc32 payload <> crc then
            Stdlib.Error (Corrupt { offset = pos; reason = "CRC mismatch" })
          else walk (pos + header_len + rlen) (payload :: acc)
    in
    walk magic_len []
  end

let count_recovery = function
  | Ok { recovery = Complete; _ } | Ok { recovery = Fresh; _ } ->
    Trace.incr recover_complete_c
  | Ok { recovery = Torn _; _ } -> Trace.incr recover_torn_c
  | Stdlib.Error _ -> ()

let recover_string image =
  let r = scan image in
  count_recovery r;
  r

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover path =
  let r =
    if not (Sys.file_exists path) then
      Ok { records = []; valid_len = 0; recovery = Fresh }
    else
      match read_all path with
      | image -> scan image
      | exception Sys_error msg -> Stdlib.Error (Io_failure msg)
  in
  count_recovery r;
  r

(* ---------- create ---------- *)

let id_io io = io

let create ?(sync_every = 32) ?(wrap_io = id_io) ~resume path =
  let make_writer records valid_len fresh =
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
    with
    | exception Unix.Unix_error (e, fn, _) ->
      Stdlib.Error
        (Io_failure (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
    | fd ->
      (try
         (* Drop any torn tail so new appends land on a record boundary
            (fresh opens truncate everything). *)
         Unix.ftruncate fd valid_len;
         ignore (Unix.lseek fd valid_len Unix.SEEK_SET)
       with Unix.Unix_error (e, fn, _) ->
         (try Unix.close fd with _ -> ());
         raise (Error (Io_failure (Printf.sprintf "%s: %s" fn (Unix.error_message e)))));
      let w =
        {
          io = wrap_io (file_io fd);
          sync_every;
          pending = 0;
          records = 0;
          bytes = 0;
          synced_bytes = 0;
          closed = false;
        }
      in
      if fresh then begin
        let b = Bytes.of_string magic in
        write_all w.io b 0 magic_len;
        w.bytes <- magic_len
      end;
      Ok (records, w)
  in
  try
    if not resume then make_writer [] 0 true
    else
      match recover path with
      | Stdlib.Error _ as e -> e
      | Ok { records; valid_len; recovery = _ } ->
        make_writer records valid_len (valid_len = 0)
  with Error e -> Stdlib.Error e

(* ---------- binary encoding helpers ---------- *)

module Enc = struct
  let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
  let u32 = put_u32

  let i64 buf v =
    let v = Int64.of_int v in
    for i = 0 to 7 do
      Buffer.add_char buf
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done

  let float buf f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      Buffer.add_char buf
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL)))
    done

  let str buf s =
    u32 buf (String.length s);
    Buffer.add_string buf s
end

module Dec = struct
  type src = { s : string; mutable pos : int }

  exception Malformed of string

  let of_string s = { s; pos = 0 }

  let need src n =
    if src.pos + n > String.length src.s then
      raise (Malformed (Printf.sprintf "payload overrun at byte %d" src.pos))

  let u8 src =
    need src 1;
    let v = Char.code src.s.[src.pos] in
    src.pos <- src.pos + 1;
    v

  let u32 src =
    need src 4;
    let v = get_u32 src.s src.pos in
    src.pos <- src.pos + 4;
    v

  let raw64 src =
    need src 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (Char.code src.s.[src.pos + i]))
    done;
    src.pos <- src.pos + 8;
    !v

  let i64 src = Int64.to_int (raw64 src)
  let float src = Int64.float_of_bits (raw64 src)

  let str src =
    let n = u32 src in
    need src n;
    let v = String.sub src.s src.pos n in
    src.pos <- src.pos + n;
    v

  let at_end src = src.pos = String.length src.s
end
