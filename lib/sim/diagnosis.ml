module Tv = Fpva_testgen.Test_vector

type syndrome = bool array

(* Everything a read needs is computed once, in [build].  The syndromes
   are stored vector-major: byte [v * n_f + e] of [bits] is '\001' iff
   entry [e]'s fault fails vector [v], so the per-read loops over
   candidates are flat byte loads.  [class_of] numbers the equivalence
   classes by first appearance, [index] maps a syndrome's [key] to its
   class, and [classes] lists each class's faults in dictionary order. *)
type dictionary = {
  vectors : Tv.t array;
  faults : Fault.t array;
  bits : Bytes.t;
  class_of : int array;
  classes : Fault.t list array;
  index : (string, int) Hashtbl.t;
}

let key (s : syndrome) =
  String.init (Array.length s) (fun v -> if s.(v) then '1' else '0')

(* Entry [e]'s syndrome, gathered from the vector-major bits. *)
let syndrome dict e =
  let n_f = Array.length dict.faults in
  Array.init (Array.length dict.vectors) (fun v ->
      Bytes.get dict.bits ((v * n_f) + e) = '\001')

let single_faults fpva =
  let nv = Fpva_grid.Fpva.num_valves fpva in
  List.concat_map
    (fun v -> [ Fault.Stuck_at_0 v; Fault.Stuck_at_1 v ])
    (List.init nv (fun v -> v))

let syndrome_of_h h ~vectors ~faults =
  Array.of_list
    (List.map (fun v -> Simulator.detects_h h ~faults v) vectors)

let syndrome_of fpva ~vectors ~faults =
  syndrome_of_h (Simulator.make fpva) ~vectors ~faults

let checkpoint_key fpva ~vectors ~faults =
  let layout, suite = Fpva_testgen.Suite_io.digest fpva vectors in
  let b = Buffer.create 256 in
  Printf.bprintf b "diagnosis/v1\nlayout=%s\nsuite=%s\nfaults=%s\n" layout
    suite
    (Digest.to_hex
       (Digest.string (String.concat ";" (List.map Fault.to_string faults))));
  Buffer.contents b

(* Candidate faults per journal shard. *)
let shard_candidates = 32

let enc_syndrome buf (s : syndrome) =
  Fpva_util.Journal.Enc.u32 buf (Array.length s);
  Array.iter (fun b -> Fpva_util.Journal.Enc.u8 buf (if b then 1 else 0)) s

let dec_syndrome src =
  let n = Fpva_util.Journal.Dec.u32 src in
  Array.init n (fun _ -> Fpva_util.Journal.Dec.u8 src = 1)

let build ?(jobs = 1) ?checkpoint fpva ~vectors ~faults =
  let tags =
    if Fpva_util.Trace.is_enabled () then
      [ ("faults", string_of_int (List.length faults));
        ("vectors", string_of_int (List.length vectors));
        ("jobs", string_of_int jobs) ]
    else []
  in
  Fpva_util.Trace.with_span "diagnosis.build" ~tags
    (fun () ->
      (* Warm the grid's shared caches before any domain spawns; after this
         the workers only read the Fpva value, each through its own
         handle. *)
      ignore (Simulator.make fpva);
      let vecs = Array.of_list vectors in
      let fa = Array.of_list faults in
      let n = Array.length fa in
      (* One row of [n] candidates, one per unit: each candidate's
         syndrome is a pure function of the (layout, suite, fault), so
         replayed shards are bit-identical to recomputed ones. *)
      let journal store =
        { Checkpoint.Shards.store; shard = shard_candidates;
          enc = enc_syndrome; dec = dec_syndrome }
      in
      let grid =
        Checkpoint.Shards.run ?checkpoint:(Option.map journal checkpoint)
          ~jobs ~rows:1 ~trials:n ~unit:1 ~empty:[||]
          ~init:(fun () -> Simulator.make fpva)
          ~body:(fun h ~lo ~width:_ ->
            [| syndrome_of_h h ~vectors ~faults:[ fa.(lo) ] |])
          ()
      in
      let syndromes = Option.get grid.Checkpoint.Shards.rows.(0) in
      let bits = Bytes.make (Array.length vecs * n) '\000' in
      let index = Hashtbl.create 64 in
      let class_of =
        Array.mapi
          (fun e s ->
            Array.iteri
              (fun v b -> if b then Bytes.set bits ((v * n) + e) '\001')
              s;
            let k = key s in
            match Hashtbl.find_opt index k with
            | Some c -> c
            | None ->
              let c = Hashtbl.length index in
              Hashtbl.add index k c;
              c)
          syndromes
      in
      let classes = Array.make (Hashtbl.length index) [] in
      for e = n - 1 downto 0 do
        classes.(class_of.(e)) <- fa.(e) :: classes.(class_of.(e))
      done;
      { vectors = vecs; faults = fa; bits; class_of; classes; index })

let all_pass s = Array.for_all not s

let check_length fn dict (observed : syndrome) =
  let n = Array.length dict.vectors in
  if Array.length observed <> n then
    invalid_arg
      (Printf.sprintf
         "Diagnosis.%s: syndrome of length %d, dictionary has %d vectors" fn
         (Array.length observed) n)

let diagnose dict observed =
  check_length "diagnose" dict observed;
  if all_pass observed then []
  else
    match Hashtbl.find_opt dict.index (key observed) with
    | Some c -> dict.classes.(c)
    | None -> []

type ranked = {
  fault : Fault.t;
  hamming : int;
  log_likelihood : float;
  confidence : float;
}

let hamming a b =
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d

let check_flip_rate fn r =
  if not (r >= 0.0 && r < 1.0) then
    invalid_arg (Printf.sprintf "Diagnosis.%s: rate %g outside [0,1)" fn r)

let rank ?(false_pass = 0.0) ?(false_fail = 0.0) ?limit dict observed =
  check_flip_rate "rank" false_pass;
  check_flip_rate "rank" false_fail;
  check_length "rank" dict observed;
  let l_fp = if false_pass > 0.0 then log false_pass else neg_infinity in
  let l_nfp = log (1.0 -. false_pass) in
  let l_ff = if false_fail > 0.0 then log false_fail else neg_infinity in
  let l_nff = log (1.0 -. false_fail) in
  let scored =
    Array.to_list dict.faults
    |> List.mapi (fun e f ->
           let s = syndrome dict e in
           let ll = ref 0.0 in
           Array.iteri
             (fun i o ->
               let term =
                 match (s.(i), o) with
                 | true, true -> l_nfp
                 | true, false -> l_fp (* predicted fail observed passing *)
                 | false, true -> l_ff (* predicted pass observed failing *)
                 | false, false -> l_nff
               in
               ll := !ll +. term)
             observed;
           (f, hamming s observed, !ll))
    (* Zero-probability candidates explain nothing: at zero noise this
       reduces the ranking to the exact matches [diagnose] returns. *)
    |> List.filter (fun (_, _, ll) -> ll > neg_infinity)
  in
  let max_ll =
    List.fold_left (fun m (_, _, ll) -> Float.max m ll) neg_infinity scored
  in
  let weighted =
    List.map (fun (f, d, ll) -> (f, d, ll, exp (ll -. max_ll))) scored
  in
  let z = List.fold_left (fun acc (_, _, _, w) -> acc +. w) 0.0 weighted in
  let ranked =
    List.map
      (fun (f, d, ll, w) ->
        { fault = f; hamming = d; log_likelihood = ll;
          confidence = (if z > 0.0 then w /. z else 0.0) })
      weighted
    |> List.stable_sort (fun a b ->
           match compare b.log_likelihood a.log_likelihood with
           | 0 -> compare a.hamming b.hamming
           | c -> c)
  in
  match limit with
  | None -> ranked
  | Some n ->
    (* A non-positive limit is a caller bug, not a request for an empty
       ranking — reject like the flip-rate guards above. *)
    if n < 1 then
      invalid_arg (Printf.sprintf "Diagnosis.rank: limit %d must be >= 1" n)
    else List.filteri (fun i _ -> i < n) ranked

let top_class ranked =
  match ranked with
  | [] -> []
  | best :: _ ->
    List.filter
      (fun r -> r.log_likelihood >= best.log_likelihood -. 1e-9)
      ranked

let subset a b =
  (* a ⊆ b, pointwise on failure bits *)
  let ok = ref true in
  Array.iteri (fun i x -> if x && not b.(i) then ok := false) a;
  !ok

let diagnose_subsuming dict observed =
  check_length "diagnose_subsuming" dict observed;
  if all_pass observed then []
  else
    Array.to_list dict.faults
    |> List.filteri (fun e _ ->
           let s = syndrome dict e in
           (not (all_pass s)) && subset s observed)

let equivalence_classes dict = Array.to_list dict.classes

let resolution dict =
  Fpva_util.Stats.ratio (Array.length dict.classes) (Array.length dict.faults)

let distinguishing_vector ?handle fpva vectors f1 f2 =
  (* Compiling a fresh handle per call turns any loop over fault pairs
     into quadratic recompilation; sequential callers pass one in. *)
  let h = match handle with Some h -> h | None -> Simulator.make fpva in
  List.find_opt
    (fun v ->
      Simulator.detects_h h ~faults:[ f1 ] v
      <> Simulator.detects_h h ~faults:[ f2 ] v)
    vectors

module Sequential = struct
  module Trace = Fpva_util.Trace

  let sessions_c = Trace.counter "diagnosis.sequential_sessions"
  let reads_c = Trace.counter "diagnosis.sequential_reads"
  let mean_reads_g = Trace.gauge "diagnosis.sequential_mean_reads"

  type config = {
    false_pass : float;
    false_fail : float;
    confidence : float;
    max_reads : int option;
  }

  let ideal =
    { false_pass = 0.0; false_fail = 0.0; confidence = 1.0; max_reads = None }

  type stop = Isolated | Confident | Exhausted

  type step = { vector : int; failed : bool; survivors : int }

  type outcome = {
    steps : step list;
    reads : int;
    isolated : Fault.t list;
    class_confidence : float;
    stop : stop;
    all_pass : bool;
  }

  let binary_entropy q =
    if q <= 0.0 || q >= 1.0 then 0.0
    else -.((q *. log q) +. ((1.0 -. q) *. log (1.0 -. q)))

  let check_confidence c =
    if not (c > 0.0 && c <= 1.0) then
      invalid_arg
        (Printf.sprintf "Diagnosis.Sequential: confidence %g outside (0,1]" c)

  let run ?(config = ideal) dict ~read =
    check_flip_rate "Sequential.run" config.false_pass;
    check_flip_rate "Sequential.run" config.false_fail;
    check_confidence config.confidence;
    let n_f = Array.length dict.faults in
    let n_v = Array.length dict.vectors in
    let bits = dict.bits and class_of = dict.class_of in
    let budget =
      match config.max_reads with
      | None -> n_v
      | Some k ->
        if k < 1 then
          invalid_arg "Diagnosis.Sequential: max_reads must be >= 1"
        else min k n_v
    in
    let l_fp =
      if config.false_pass > 0.0 then log config.false_pass else neg_infinity
    in
    let l_nfp = log (1.0 -. config.false_pass) in
    let l_ff =
      if config.false_fail > 0.0 then log config.false_fail else neg_infinity
    in
    let l_nff = log (1.0 -. config.false_fail) in
    (* P(observe fail | candidate's dictionary bit is set / clear) *)
    let p_fail_set = 1.0 -. config.false_pass
    and p_fail_clear = config.false_fail in
    let ll = Array.make n_f 0.0 in
    let weights = Array.make n_f 0.0 in
    let unread = Array.make n_v true in
    (* Softmax over survivors; fills [weights] and returns the partition
       sum (0 when every candidate has been eliminated). *)
    let posterior () =
      let max_ll = Array.fold_left Float.max neg_infinity ll in
      if max_ll = neg_infinity then 0.0
      else begin
        let z = ref 0.0 in
        for i = 0 to n_f - 1 do
          let w =
            if ll.(i) = neg_infinity then 0.0 else exp (ll.(i) -. max_ll)
          in
          weights.(i) <- w;
          z := !z +. w
        done;
        !z
      end
    in
    let survivors () =
      let n = ref 0 in
      for i = 0 to n_f - 1 do
        if ll.(i) > neg_infinity then incr n
      done;
      !n
    in
    (* The isolation stop: no two survivors lie in different equivalence
       classes.  Stops scanning at the first survivor of a second class. *)
    let single_class () =
      let rec scan i c =
        if i = n_f then true
        else if ll.(i) = neg_infinity then scan (i + 1) c
        else if c < 0 || class_of.(i) = c then scan (i + 1) class_of.(i)
        else false
      in
      scan 0 (-1)
    in
    let top_index () =
      let best = ref (-1) in
      for i = 0 to n_f - 1 do
        if ll.(i) > neg_infinity && (!best < 0 || ll.(i) > ll.(!best)) then
          best := i
      done;
      !best
    in
    let steps = ref [] in
    let reads = ref 0 in
    let finish stop z =
      let top = top_index () in
      let isolated, class_confidence =
        if top < 0 then ([], 0.0)
        else begin
          let tc = class_of.(top) in
          let members = ref [] in
          let mass = ref 0.0 in
          for i = n_f - 1 downto 0 do
            if ll.(i) > neg_infinity && class_of.(i) = tc then begin
              members := dict.faults.(i) :: !members;
              mass := !mass +. weights.(i)
            end
          done;
          (!members, if z > 0.0 then !mass /. z else 0.0)
        end
      in
      let all_pass =
        not (List.exists (fun (s : step) -> s.failed) !steps)
      in
      Trace.add sessions_c 1;
      Trace.add reads_c !reads;
      { steps = List.rev !steps; reads = !reads; isolated; class_confidence;
        stop; all_pass }
    in
    let rec loop () =
      let z = posterior () in
      if z = 0.0 then finish Exhausted z
      else if single_class () then finish Isolated z
      else begin
        let tc = class_of.(top_index ()) in
        let top_mass = ref 0.0 in
        for i = 0 to n_f - 1 do
          if ll.(i) > neg_infinity && class_of.(i) = tc then
            top_mass := !top_mass +. weights.(i)
        done;
        if !top_mass /. z >= config.confidence then finish Confident z
        else if !reads >= budget then finish Exhausted z
        else begin
          (* Expected-information vector choice: q_v is the posterior
             probability the next read of v fails; the binary entropy of
             q_v scores how evenly v splits the surviving candidate mass
             (the set-level generalization of [distinguishing_vector]).
             Strict [>] keeps the lowest index on ties. *)
          let best = ref (-1) in
          let best_score = ref 0.0 in
          for v = 0 to n_v - 1 do
            if unread.(v) then begin
              let row = v * n_f in
              let q = ref 0.0 in
              for i = 0 to n_f - 1 do
                if weights.(i) > 0.0 then begin
                  let p =
                    if Bytes.get bits (row + i) = '\001' then p_fail_set
                    else p_fail_clear
                  in
                  q := !q +. (weights.(i) *. p)
                end
              done;
              let score = binary_entropy (!q /. z) in
              if score > !best_score then begin
                best := v;
                best_score := score
              end
            end
          done;
          if !best < 0 then finish Exhausted z
          else begin
            let v = !best in
            let o = read v dict.vectors.(v) in
            unread.(v) <- false;
            incr reads;
            let row = v * n_f in
            for i = 0 to n_f - 1 do
              let term =
                match (Bytes.get bits (row + i) = '\001', o) with
                | true, true -> l_nfp
                | true, false -> l_fp
                | false, true -> l_ff
                | false, false -> l_nff
              in
              ll.(i) <- ll.(i) +. term
            done;
            steps :=
              { vector = v; failed = o; survivors = survivors () } :: !steps;
            loop ()
          end
        end
      end
    in
    loop ()

  type replay = {
    fault : Fault.t;
    reads : int;
    agreed : bool;
    replay_all_pass : bool;
  }

  type sweep = {
    sessions : int;
    mean_reads : float;
    p95_reads : float;
    max_session_reads : int;
    fixed_reads : int;
    all_agree : bool;
    replays : replay list;
  }

  let replay_entry ?(config = ideal) dict i =
    let f = dict.faults.(i) and s = syndrome dict i in
    let outcome = run ~config dict ~read:(fun v _ -> s.(v)) in
    (* Parity with the fixed-suite path: [diagnose] answers [] on an
       all-pass syndrome (where the session necessarily observes only
       passes), so an all-pass replay agrees iff the session ended
       all-pass; otherwise the isolated class must equal [diagnose]'s
       equivalence class, in dictionary order.  (A session may isolate a
       failing class from passing reads alone — by eliminating every
       other class — so [outcome.all_pass] is reported, not compared.) *)
    let agreed =
      if all_pass s then outcome.all_pass
      else outcome.isolated = diagnose dict s
    in
    { fault = f; reads = outcome.reads; agreed; replay_all_pass = all_pass s }

  let sweep ?(config = ideal) dict =
    let n = Array.length dict.faults in
    let tags =
      if Trace.is_enabled () then
        [ ("candidates", string_of_int n);
          ("vectors", string_of_int (Array.length dict.vectors)) ]
      else []
    in
    Trace.with_span "diagnosis.sequential_sweep" ~tags (fun () ->
        let replays = List.init n (fun i -> replay_entry ~config dict i) in
        let reads = Array.of_list (List.map (fun r -> float_of_int r.reads) replays) in
        let mean_reads = if n = 0 then 0.0 else Fpva_util.Stats.mean reads in
        let p95_reads =
          if n = 0 then 0.0 else Fpva_util.Stats.percentile reads 95.0
        in
        let max_session_reads =
          List.fold_left (fun m r -> max m r.reads) 0 replays
        in
        Trace.set_gauge mean_reads_g mean_reads;
        { sessions = n; mean_reads; p95_reads; max_session_reads;
          fixed_reads = Array.length dict.vectors;
          all_agree = List.for_all (fun r -> r.agreed) replays;
          replays })
end
