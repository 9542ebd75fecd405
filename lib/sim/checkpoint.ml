module Journal = Fpva_util.Journal
module Pool = Fpva_util.Pool
module Trace = Fpva_util.Trace

let recorded_c = Trace.counter "checkpoint.shards_recorded"
let skipped_c = Trace.counter "checkpoint.shards_skipped"
let rejected_c = Trace.counter "checkpoint.shards_rejected"
let write_failures_c = Trace.counter "checkpoint.write_failures"

type t = {
  path : string;
  loaded : (int, string) Hashtbl.t;
  mutable writer : Journal.writer option;  (* None once disabled/closed *)
  mutable failure : string option;
  mutable resumed : int;
  mutable recorded : int;
  lock : Mutex.t;
}

type open_error =
  | Corrupt of string
  | Key_mismatch of { expected : string; found : string }
  | Io_failure of string

let open_error_to_string = function
  | Corrupt msg -> Printf.sprintf "corrupt checkpoint: %s" msg
  | Key_mismatch { expected; found } ->
    Printf.sprintf
      "checkpoint belongs to a different run (key %s, expected %s) — it \
       cannot resume this campaign"
      found expected
  | Io_failure msg -> Printf.sprintf "checkpoint I/O failure: %s" msg

(* Record tags.  The header pins the key; shard records carry the
   engine-encoded payload for one shard id. *)
let tag_header = 0x48 (* 'H' *)
let tag_shard = 0x53 (* 'S' *)

let encode_header key =
  let buf = Buffer.create (String.length key + 8) in
  Journal.Enc.u8 buf tag_header;
  Journal.Enc.str buf key;
  Buffer.contents buf

let encode_shard shard payload =
  let buf = Buffer.create (String.length payload + 12) in
  Journal.Enc.u8 buf tag_shard;
  Journal.Enc.u32 buf shard;
  Journal.Enc.str buf payload;
  Buffer.contents buf

let key_digest key = Digest.to_hex (Digest.string key)

let open_ ?sync_every ?wrap_io ~path ~resume ~key () =
  match Journal.create ?sync_every ?wrap_io ~resume path with
  | Error e -> (
    match e with
    | Journal.Corrupt _ -> Error (Corrupt (Journal.error_to_string e))
    | Journal.Io_failure msg -> Error (Io_failure msg))
  | Ok (records, writer) ->
    let t =
      {
        path;
        loaded = Hashtbl.create 64;
        writer = Some writer;
        failure = None;
        resumed = 0;
        recorded = 0;
        lock = Mutex.create ();
      }
    in
    let close_writer () = try Journal.close writer with Journal.Error _ -> () in
    let corrupt msg =
      close_writer ();
      Error (Corrupt msg)
    in
    let decode_records () =
      try
        (match records with
        | [] ->
          (* Fresh (or torn-before-the-header) journal: stamp it. *)
          Journal.append writer (encode_header key)
        | header :: shards ->
          let src = Journal.Dec.of_string header in
          if Journal.Dec.u8 src <> tag_header then
            raise (Journal.Dec.Malformed "first record is not a header");
          let found = Journal.Dec.str src in
          if found <> key then begin
            close_writer ();
            raise Exit
          end;
          List.iter
            (fun r ->
              let src = Journal.Dec.of_string r in
              if Journal.Dec.u8 src <> tag_shard then
                raise (Journal.Dec.Malformed "record is not a shard");
              let shard = Journal.Dec.u32 src in
              let payload = Journal.Dec.str src in
              (* Duplicates can only arise from a record re-appended
                 after an unsynced resume; last one wins, they are
                 identical by construction (pure shard functions). *)
              Hashtbl.replace t.loaded shard payload)
            shards);
        Ok t
      with
      | Exit ->
        let src = Journal.Dec.of_string (List.hd records) in
        ignore (Journal.Dec.u8 src);
        Error (Key_mismatch { expected = key; found = Journal.Dec.str src })
      | Journal.Dec.Malformed msg -> corrupt msg
      | Journal.Error e -> (
        close_writer ();
        match e with
        | Journal.Corrupt _ -> Error (Corrupt (Journal.error_to_string e))
        | Journal.Io_failure msg -> Error (Io_failure msg))
    in
    decode_records ()

let disable t reason =
  t.failure <- Some reason;
  t.writer <- None;
  Trace.incr write_failures_c

let consume t shard ~decode =
  match Hashtbl.find_opt t.loaded shard with
  | None -> None
  | Some payload -> (
    match decode payload with
    | Some v ->
      t.resumed <- t.resumed + 1;
      Trace.incr skipped_c;
      Some v
    | None ->
      (* CRC said the bytes are what was written; if they no longer
         decode, the encoding changed under an unchanged key.  Recompute
         rather than trust it. *)
      Hashtbl.remove t.loaded shard;
      Trace.incr rejected_c;
      None)

let with_writer t f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.writer with
      | None -> ()
      | Some w -> (
        try f w
        with Journal.Error e -> disable t (Journal.error_to_string e)))

let record t shard payload =
  with_writer t (fun w ->
      Journal.append w (encode_shard shard payload);
      t.recorded <- t.recorded + 1;
      Trace.incr recorded_c)

let flush t = with_writer t Journal.sync

let resumed_shards t = t.resumed
let recorded_shards t = t.recorded
let failure t = t.failure
let path t = t.path

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.writer with
      | None -> ()
      | Some w ->
        t.writer <- None;
        (try Journal.close w
         with Journal.Error e ->
           t.failure <-
             (match t.failure with
             | Some _ as f -> f
             | None -> Some (Journal.error_to_string e))))

let delete t =
  close t;
  try Sys.remove t.path with Sys_error _ -> ()

type store = t

module Shards = struct
  module Enc = Journal.Enc
  module Dec = Journal.Dec
  module Budget = Fpva_testgen.Budget

  type 'a journal = {
    store : store;
    shard : int;
    enc : Buffer.t -> 'a -> unit;
    dec : Dec.src -> 'a;
  }

  type 'a grid = {
    rows : 'a array option array;
    scored : int;
    scored_units : int;
  }

  (* The payload frames its own range so a record can never be replayed
     into a different slice of the run. *)
  let encode_payload enc items ~lo ~count =
    let buf = Buffer.create 64 in
    Enc.u32 buf lo;
    Enc.u32 buf count;
    for g = lo to lo + count - 1 do
      enc buf items.(g)
    done;
    Buffer.contents buf

  let decode_payload dec ~lo ~count payload =
    match
      let src = Dec.of_string payload in
      let plo = Dec.u32 src in
      let pcount = Dec.u32 src in
      if plo <> lo || pcount <> count then None
      else
        let arr = Array.init count (fun _ -> dec src) in
        if Dec.at_end src then Some arr else None
    with
    | v -> v
    | exception Dec.Malformed _ -> None

  (* Journal bookkeeping for one run.  Shards are carved at multiples of
     [j.shard] from each row's origin, [spr] per row, each holding [spu]
     consecutive units (fewer at a row's end).  Journaled shards are
     replayed into [items] here, before any worker starts; the returned
     [scored u] counts unit [u] down and journals its shard once the last
     unit lands. *)
  let attach j ~rows ~trials ~unit ~upr items =
    let spr = (trials + j.shard - 1) / j.shard in
    let spu = j.shard / unit in
    let range s =
      let lo = s mod spr * j.shard in
      ((s / spr * trials) + lo, min (lo + j.shard) trials - lo)
    in
    let shard_of u = (u / upr * spr) + (u mod upr / spu) in
    let nshards = rows * spr in
    let replayed = Array.make nshards false in
    let remaining =
      Array.init nshards (fun s ->
          Atomic.make (min spu (upr - (s mod spr * spu))))
    in
    for s = 0 to nshards - 1 do
      let lo, count = range s in
      match consume j.store s ~decode:(decode_payload j.dec ~lo ~count) with
      | Some arr ->
        Array.blit arr 0 items lo count;
        replayed.(s) <- true
      | None -> ()
    done;
    let scored u =
      let s = shard_of u in
      if Atomic.fetch_and_add remaining.(s) (-1) = 1 then begin
        let lo, count = range s in
        record j.store s (encode_payload j.enc items ~lo ~count)
      end
    in
    ((fun u -> replayed.(shard_of u)), scored)

  let run ?(budget = Budget.unlimited) ?checkpoint ~jobs ~rows ~trials ~unit
      ~empty ~init ~body () =
    if rows < 0 || trials < 0 then
      invalid_arg "Checkpoint.Shards.run: negative grid";
    if unit < 1 then invalid_arg "Checkpoint.Shards.run: unit must be >= 1";
    (match checkpoint with
    | Some j when j.shard < 1 || j.shard mod unit <> 0 ->
      invalid_arg
        "Checkpoint.Shards.run: shard must be a positive multiple of unit"
    | _ -> ());
    (* Unit [u] is the [u mod upr]-th run of [unit] items of row
       [u / upr]; only a row's last unit can be narrower. *)
    let upr = (trials + unit - 1) / unit in
    let items = Array.make (rows * trials) empty in
    let replayed, scored =
      match checkpoint with
      | None -> ((fun _ -> false), ignore)
      | Some j -> attach j ~rows ~trials ~unit ~upr items
    in
    let widths =
      Pool.run ~jobs ~n:(rows * upr) ~init ~body:(fun w u ->
          if replayed u || Budget.exhausted budget then 0
          else begin
            let lo = (u / upr * trials) + (u mod upr * unit) in
            let width = min unit (trials - (u mod upr * unit)) in
            Array.blit (body w ~lo ~width) 0 items lo width;
            scored u;
            width
          end)
    in
    Option.iter (fun j -> flush j.store) checkpoint;
    let row r =
      let rec complete k =
        k = upr
        ||
        let u = (r * upr) + k in
        (widths.(u) > 0 || replayed u) && complete (k + 1)
      in
      if complete 0 then Some (Array.sub items (r * trials) trials) else None
    in
    { rows = Array.init rows row;
      scored = Array.fold_left ( + ) 0 widths;
      scored_units =
        Array.fold_left (fun n w -> if w > 0 then n + 1 else n) 0 widths }
end
