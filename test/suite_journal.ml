(* The durable record log under checkpoint/resume.  The failure model is
   "the writer dies at any byte boundary": the torn-write fuzz below
   truncates a valid journal at *every* offset of its tail record and
   demands recovery stop exactly at the last intact record — never raise,
   never invent data.  Mid-stream damage, by contrast, must be refused
   loudly: a CRC mismatch on a complete record is corruption, not a tail. *)

open Helpers
module Journal = Fpva_util.Journal

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpva-journal-%d-%d.bin" (Unix.getpid ()) !n)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let ok_or_fail msg = function
  | Ok v -> v
  | Error e -> Alcotest.fail (msg ^ ": " ^ Journal.error_to_string e)

(* Build a journal image holding [records] and return its bytes. *)
let image records =
  with_tmp (fun path ->
      let _, w = ok_or_fail "create" (Journal.create ~resume:false path) in
      List.iter (Journal.append w) records;
      Journal.close w;
      read_file path)

let sample_records =
  [ "alpha"; ""; String.make 300 '\xab'; "tail-record-payload" ]

let strings = Alcotest.(list string)

let roundtrip_tests =
  [
    case "append then recover returns the records in order" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create" (Journal.create ~resume:false path)
            in
            List.iter (Journal.append w) sample_records;
            checki "records_written" (List.length sample_records)
              (Journal.records_written w);
            Journal.close w;
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "payloads" sample_records r.Journal.records;
            checkb "complete" true (r.Journal.recovery = Journal.Complete)));
    case "missing file recovers as Fresh" (fun () ->
        let r =
          ok_or_fail "recover"
            (Journal.recover "/nonexistent/fpva-journal.bin")
        in
        checkb "fresh" true (r.Journal.recovery = Journal.Fresh);
        check strings "no records" [] r.Journal.records);
    case "resume continues after existing records" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create" (Journal.create ~resume:false path)
            in
            Journal.append w "one";
            Journal.close w;
            let old, w =
              ok_or_fail "reopen" (Journal.create ~resume:true path)
            in
            check strings "old records" [ "one" ] old;
            Journal.append w "two";
            Journal.close w;
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "both" [ "one"; "two" ] r.Journal.records));
    case "resume:false truncates an existing journal" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create" (Journal.create ~resume:false path)
            in
            Journal.append w "stale";
            Journal.close w;
            let old, w =
              ok_or_fail "recreate" (Journal.create ~resume:false path)
            in
            check strings "fresh" [] old;
            Journal.close w;
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "empty" [] r.Journal.records));
    case "append on a closed writer raises" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create" (Journal.create ~resume:false path)
            in
            Journal.close w;
            Journal.close w (* idempotent *);
            match Journal.append w "late" with
            | () -> Alcotest.fail "append after close succeeded"
            | exception Journal.Error (Journal.Io_failure _) -> ()));
  ]

(* ---------- torn writes ---------- *)

let torn_tests =
  [
    case "truncation at every tail offset recovers the intact prefix"
      (fun () ->
        let full = image sample_records in
        let all_but_tail =
          image
            (List.filteri
               (fun i _ -> i < List.length sample_records - 1)
               sample_records)
        in
        let prefix_len = String.length all_but_tail in
        (* Every cut inside the tail record, from "header byte 1" to "one
           byte short of complete". *)
        for cut = prefix_len + 1 to String.length full - 1 do
          let img = String.sub full 0 cut in
          match Journal.recover_string img with
          | Error e ->
            Alcotest.fail
              (Printf.sprintf "cut at %d refused: %s" cut
                 (Journal.error_to_string e))
          | Ok r ->
            check strings
              (Printf.sprintf "cut at %d keeps the prefix" cut)
              (List.filteri
                 (fun i _ -> i < List.length sample_records - 1)
                 sample_records)
              r.Journal.records;
            checki
              (Printf.sprintf "cut at %d valid_len" cut)
              prefix_len r.Journal.valid_len;
            checkb "torn" true
              (r.Journal.recovery = Journal.Torn { dropped_bytes = cut - prefix_len })
        done);
    case "truncation inside the magic header is torn, not corrupt"
      (fun () ->
        let full = image [ "x" ] in
        for cut = 1 to 7 do
          match Journal.recover_string (String.sub full 0 cut) with
          | Ok r ->
            check strings "no records" [] r.Journal.records;
            checkb "torn" true
              (match r.Journal.recovery with
              | Journal.Torn _ -> true
              | _ -> false)
          | Error e ->
            Alcotest.fail
              (Printf.sprintf "cut at %d refused: %s" cut
                 (Journal.error_to_string e))
        done);
    case "resume truncates the torn tail and appends cleanly" (fun () ->
        with_tmp (fun path ->
            let full = image sample_records in
            (* Chop mid-way through the tail record. *)
            write_file path (String.sub full 0 (String.length full - 3));
            let old, w =
              ok_or_fail "resume" (Journal.create ~resume:true path)
            in
            checki "tail dropped" (List.length sample_records - 1)
              (List.length old);
            Journal.append w "replacement";
            Journal.close w;
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "clean boundary"
              (List.filteri
                 (fun i _ -> i < List.length sample_records - 1)
                 sample_records
              @ [ "replacement" ])
              r.Journal.records));
  ]

(* ---------- corruption ---------- *)

let expect_corrupt what = function
  | Error (Journal.Corrupt _) -> ()
  | Error e ->
    Alcotest.fail (what ^ ": wrong error " ^ Journal.error_to_string e)
  | Ok _ -> Alcotest.fail (what ^ ": accepted corrupt journal")

let corruption_tests =
  [
    case "a complete record with a bad CRC is Corrupt, even in final \
          position" (fun () ->
        let full = image sample_records in
        (* Flip one payload byte of the final (complete) record. *)
        let b = Bytes.of_string full in
        let i = Bytes.length b - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        expect_corrupt "final record"
          (Journal.recover_string (Bytes.to_string b));
        (* And of a mid-stream record: byte right after the prefix
           journal's image is inside record 1's framing/payload. *)
        let b = Bytes.of_string full in
        Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lxor 0x01));
        expect_corrupt "mid-stream"
          (Journal.recover_string (Bytes.to_string b)));
    case "bad magic is Corrupt" (fun () ->
        expect_corrupt "magic"
          (Journal.recover_string ("NOTJRNL0" ^ String.make 16 '\x00')));
    case "an absurd length field is Corrupt, not a huge allocation"
      (fun () ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf (String.sub (image []) 0 8);
        (* length = max_record_len + 1, CRC irrelevant *)
        Journal.Enc.u32 buf (Journal.max_record_len + 1);
        Journal.Enc.u32 buf 0;
        Buffer.add_string buf "xxxx";
        expect_corrupt "length" (Journal.recover_string (Buffer.contents buf)));
    case "resume refuses a mid-stream-corrupt file" (fun () ->
        with_tmp (fun path ->
            let full = image sample_records in
            let b = Bytes.of_string full in
            Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lxor 0x01));
            write_file path (Bytes.to_string b);
            match Journal.create ~resume:true path with
            | Error (Journal.Corrupt _) -> ()
            | Error e ->
              Alcotest.fail ("wrong error " ^ Journal.error_to_string e)
            | Ok (_, w) ->
              Journal.close w;
              Alcotest.fail "opened a corrupt journal"));
  ]

(* ---------- chaos I/O faults ---------- *)

let chaos_tests =
  [
    case "short writes are retried to a valid journal" (fun () ->
        with_tmp (fun path ->
            let m = Chaos.monitor () in
            let _, w =
              ok_or_fail "create"
                (Journal.create ~resume:false
                   ~wrap_io:(Chaos.Io.wrap ~monitor:m [ Chaos.Io.Short_write 3 ])
                   path)
            in
            List.iter (Journal.append w) sample_records;
            Journal.close w;
            checkb "short writes actually injected" true (m.Chaos.injected > 0);
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "intact" sample_records r.Journal.records));
    case "EINTR is retried transparently" (fun () ->
        with_tmp (fun path ->
            let m = Chaos.monitor () in
            let _, w =
              ok_or_fail "create"
                (Journal.create ~resume:false
                   ~wrap_io:(Chaos.Io.wrap ~monitor:m [ Chaos.Io.Eintr_every 2 ])
                   path)
            in
            List.iter (Journal.append w) sample_records;
            Journal.close w;
            checkb "EINTR actually injected" true (m.Chaos.injected > 0);
            let r = ok_or_fail "recover" (Journal.recover path) in
            check strings "intact" sample_records r.Journal.records));
    case "ENOSPC surfaces as a typed Io_failure" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create"
                (Journal.create ~resume:false
                   ~wrap_io:(Chaos.Io.wrap [ Chaos.Io.Enospc_after 40 ])
                   path)
            in
            match List.iter (Journal.append w) sample_records with
            | () -> Alcotest.fail "full disk went unnoticed"
            | exception Journal.Error (Journal.Io_failure _) -> ()));
    case "fsync failure surfaces on sync" (fun () ->
        with_tmp (fun path ->
            let _, w =
              ok_or_fail "create"
                (Journal.create ~resume:false ~sync_every:0
                   ~wrap_io:(Chaos.Io.wrap [ Chaos.Io.Fsync_failure ])
                   path)
            in
            Journal.append w "record";
            match Journal.sync w with
            | () -> Alcotest.fail "fsync failure went unnoticed"
            | exception Journal.Error (Journal.Io_failure _) -> ()));
  ]

(* ---------- Enc/Dec ---------- *)

let value_gen =
  QCheck2.Gen.(
    oneof
      [ map (fun n -> `U8 n) (int_bound 255);
        map (fun n -> `U32 n) (int_bound 0xffffff);
        map (fun n -> `I64 n) int;
        map (fun f -> `F f) float;
        map (fun s -> `S s) (string_size (int_bound 40)) ])

let encdec_tests =
  [
    qcheck ~count:200 "Enc/Dec round-trips mixed value sequences"
      QCheck2.Gen.(list_size (int_bound 12) value_gen)
      (fun values ->
        let buf = Buffer.create 64 in
        List.iter
          (function
            | `U8 n -> Journal.Enc.u8 buf n
            | `U32 n -> Journal.Enc.u32 buf n
            | `I64 n -> Journal.Enc.i64 buf n
            | `F f -> Journal.Enc.float buf f
            | `S s -> Journal.Enc.str buf s)
          values;
        let src = Journal.Dec.of_string (Buffer.contents buf) in
        List.for_all
          (function
            | `U8 n -> Journal.Dec.u8 src = n
            | `U32 n -> Journal.Dec.u32 src = n
            | `I64 n -> Journal.Dec.i64 src = n
            | `F f ->
              let g = Journal.Dec.float src in
              g = f || (Float.is_nan f && Float.is_nan g)
            | `S s -> Journal.Dec.str src = s)
          values
        && Journal.Dec.at_end src);
    case "Dec raises Malformed on overrun" (fun () ->
        let src = Journal.Dec.of_string "ab" in
        match Journal.Dec.u32 src with
        | _ -> Alcotest.fail "read past the end"
        | exception Journal.Dec.Malformed _ -> ());
    case "crc32 matches the IEEE reference vector" (fun () ->
        (* "123456789" -> 0xCBF43926 is the standard check value. *)
        checkb "check value" true (Journal.crc32 "123456789" = 0xcbf43926));
  ]

let tests =
  roundtrip_tests @ torn_tests @ corruption_tests
  @ chaos_tests @ encdec_tests
