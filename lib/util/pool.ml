(* Fixed-size Domain worker pool over a chunked index range.

   The campaign workloads this serves are embarrassingly parallel with a
   determinism contract: item [i]'s result must be a pure function of [i]
   (randomness included — callers derive per-item RNG streams with
   [Rng.mix]).  The pool therefore only schedules; results land at their
   index regardless of which worker computed them, so the output is
   bit-identical for every [jobs] value.

   Scheduling: the range [0, n) is cut into contiguous chunks and workers
   pull the next chunk off a shared atomic counter — cheap dynamic load
   balancing without per-item contention.  The caller's domain doubles as
   worker 0, so [jobs] domains run in total ([jobs - 1] spawned). *)

let default_jobs () = min (Domain.recommended_domain_count ()) 8

exception Multi_failure of exn * (int * string) list

let () =
  Printexc.register_printer (function
    | Multi_failure (first, rest) ->
      Some
        (Printf.sprintf "Pool.Multi_failure(%s; also %s)"
           (Printexc.to_string first)
           (String.concat "; "
              (List.map
                 (fun (wid, msg) -> Printf.sprintf "worker %d: %s" wid msg)
                 rest)))
    | _ -> None)

let items_c = Trace.counter "pool.items"

let sequential ~n ~init ~body =
  let t0 = if Trace.is_enabled () then Timer.now () else 0.0 in
  let w = init () in
  let out =
    if n = 0 then [||]
    else begin
      let out = Array.make n (body w 0) in
      for i = 1 to n - 1 do
        out.(i) <- body w i
      done;
      out
    end
  in
  if Trace.is_enabled () then begin
    Trace.add items_c n;
    Trace.emit_span "pool.worker" ~dur:(Timer.elapsed t0)
      ~tags:[ ("worker", "0"); ("items", string_of_int n) ]
  end;
  out

(* A domain spawn costs more than a handful of items: never give a worker
   fewer than this many, and with too few items for even a second worker
   run the whole range sequentially in the caller. *)
let min_per_worker = 4

let run ~jobs ~n ~init ~body =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  if n < 0 then invalid_arg "Pool.run: negative item count";
  let workers = min (min jobs n) (max 1 (n / min_per_worker)) in
  if jobs = 1 || workers <= 1 || n <= 1 then sequential ~n ~init ~body
  else begin
    (* Several chunks per worker so a slow chunk does not straggle the
       whole run, but chunks big enough that the counter is cold. *)
    let chunk = max 1 (n / (workers * 8)) in
    let num_chunks = (n + chunk - 1) / chunk in
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let failures = Array.make workers None in
    let work wid =
      let t0 = if Trace.is_enabled () then Timer.now () else 0.0 in
      let claimed = ref 0 in
      (try
         let w = init () in
         let rec loop () =
           let c = Atomic.fetch_and_add next 1 in
           if c < num_chunks then begin
             let lo = c * chunk in
             let hi = min n (lo + chunk) in
             for i = lo to hi - 1 do
               (* Disjoint indices: no two workers ever write one slot. *)
               results.(i) <- Some (body w i)
             done;
             claimed := !claimed + (hi - lo);
             loop ()
           end
         in
         loop ()
       with e -> failures.(wid) <- Some e);
      if Trace.is_enabled () then
        Trace.emit_span "pool.worker" ~dur:(Timer.elapsed t0)
          ~tags:
            [ ("worker", string_of_int wid);
              ("items", string_of_int !claimed) ]
    in
    Trace.add items_c n;
    let domains =
      Array.init (workers - 1) (fun k -> Domain.spawn (fun () -> work (k + 1)))
    in
    work 0;
    Array.iter Domain.join domains;
    let failed = ref [] in
    Array.iteri
      (fun wid -> function
        | Some e -> failed := (wid, e) :: !failed
        | None -> ())
      failures;
    (match List.rev !failed with
    | [] -> ()
    | [ (_, e) ] -> raise e
    | (_, first) :: rest ->
      (* Concurrent failures: re-raising only the first would silently
         discard evidence from the other workers.  Carry the primary
         exception intact (unwrappable by handlers) plus the rest as
         rendered summaries. *)
      raise
        (Multi_failure
           (first, List.map (fun (wid, e) -> (wid, Printexc.to_string e)) rest)));
    Array.map
      (function
        | Some x -> x
        | None ->
          (* Unreachable: every chunk was claimed and no worker failed. *)
          assert false)
      results
  end
