module Tv = Fpva_testgen.Test_vector

type syndrome = bool array

(* Everything a read needs is computed once, in [build].  [class_of]
   numbers the equivalence classes by first appearance, [index] maps a
   syndrome's [key] to its class, [classes] lists each class's faults in
   dictionary order and [class_size] counts them.  The syndromes are
   stored once per class, class-major: byte [c * n_v + v] of [table] is
   '\001' iff class [c]'s faults fail vector [v], so a class's row is
   contiguous. *)
type dictionary = {
  vectors : Tv.t array;
  faults : Fault.t array;
  table : Bytes.t;
  class_of : int array;
  classes : Fault.t list array;
  class_size : int array;
  index : (string, int) Hashtbl.t;
  spare : buffers option Atomic.t;
}

(* A session's working arrays (see [Sequential.run]), [n_c] slots per
   class array, [n_f] per fault and [n_v] per vector.  A session sets
   every slot before it reads it, so one session's arrays serve the next:
   the dictionary keeps the last ones in [spare].  A session takes them
   out of the slot until it ends, so concurrent sessions on one
   dictionary never share them. *)
and buffers = {
  group : int array;
  gll : float array;
  first : int array;
  gw : float array;
  next_ll : float array;
  next_first : int array;
  child : int array;  (* 2 per class *)
  live_row : int array;
  pw : float array;  (* 2 per fault *)
  uv : int array;
  qs : float array;
}

let new_buffers ~n_c ~n_f ~n_v =
  { group = Array.make n_c 0; gll = Array.make n_c 0.0;
    first = Array.make n_c 0; gw = Array.make n_c 0.0;
    next_ll = Array.make n_c 0.0; next_first = Array.make n_c 0;
    child = Array.make (2 * n_c) 0; live_row = Array.make n_f 0;
    pw = Array.make (2 * n_f) 0.0; uv = Array.make n_v 0;
    qs = Array.make n_v 0.0 }

let key (s : syndrome) =
  String.init (Array.length s) (fun v -> if s.(v) then '1' else '0')

(* Entry [e]'s syndrome, its class's row of the table. *)
let syndrome dict e =
  let n_v = Array.length dict.vectors in
  let row = dict.class_of.(e) * n_v in
  Array.init n_v (fun v -> Bytes.get dict.table (row + v) = '\001')

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
      let index = Hashtbl.create 64 in
      let class_of =
        Array.map
          (fun s ->
            let k = key s in
            match Hashtbl.find_opt index k with
            | Some c -> c
            | None ->
              let c = Hashtbl.length index in
              Hashtbl.add index k c;
              c)
          syndromes
      in
      let n_v = Array.length vecs in
      let table = Bytes.make (Hashtbl.length index * n_v) '\000' in
      Array.iteri
        (fun e s ->
          let row = class_of.(e) * n_v in
          Array.iteri (fun v b -> if b then Bytes.set table (row + v) '\001') s)
        syndromes;
      let classes = Array.make (Hashtbl.length index) [] in
      for e = n - 1 downto 0 do
        classes.(class_of.(e)) <- fa.(e) :: classes.(class_of.(e))
      done;
      { vectors = vecs; faults = fa; table; class_of; classes;
        class_size = Array.map List.length classes; index;
        spare = Atomic.make None })

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
  let groups_c = Trace.counter "diagnosis.sequential_groups"
  let cells_c = Trace.counter "diagnosis.sequential_cells"
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

  (* [q] of the unread vectors [uv.(j .. j + 3)] into [qs.(j .. j + 3)]:
     each is summed over the live faults in ascending index in its own
     accumulator, so the four chains run independently.  A slot past
     [last] repeats [uv.(last)] and rewrites [qs.(last)] with the same
     sum.  Unchecked loads: [k < n_live] indexes the live faults, [pw]
     has two slots per fault, and a row offset plus a vector index stays
     inside the table. *)
  let[@inline] cell table pw row o v =
    Array.unsafe_get pw (o + Char.code (Bytes.unsafe_get table (row + v)))

  let score4 table ~live_row ~pw ~n_live ~uv ~last ~qs j =
    let j1 = min (j + 1) last and j2 = min (j + 2) last
    and j3 = min (j + 3) last in
    let v0 = uv.(j) and v1 = uv.(j1) and v2 = uv.(j2) and v3 = uv.(j3) in
    let q0 = ref 0.0 and q1 = ref 0.0 and q2 = ref 0.0 and q3 = ref 0.0 in
    for k = 0 to n_live - 1 do
      let row = Array.unsafe_get live_row k and o = 2 * k in
      q0 := !q0 +. cell table pw row o v0;
      q1 := !q1 +. cell table pw row o v1;
      q2 := !q2 +. cell table pw row o v2;
      q3 := !q3 +. cell table pw row o v3
    done;
    qs.(j) <- !q0;
    qs.(j1) <- !q1;
    qs.(j2) <- !q2;
    qs.(j3) <- !q3

  let run ?(config = ideal) dict ~read =
    check_flip_rate "Sequential.run" config.false_pass;
    check_flip_rate "Sequential.run" config.false_fail;
    check_confidence config.confidence;
    let n_f = Array.length dict.faults in
    let n_v = Array.length dict.vectors in
    let n_c = Array.length dict.classes in
    let table = dict.table and class_of = dict.class_of in
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
    (* The last session's arrays, or fresh ones; put back by [finish]
       (a session that raises drops them). *)
    let spare = Atomic.exchange dict.spare None in
    let b =
      match spare with Some b -> b | None -> new_buffers ~n_c ~n_f ~n_v
    in
    (* Agreement groups.  A fault's log-likelihood is 0 plus one term per
       read, and the term depends only on its bit for the vector read, so
       the classes that read alike on every vector read so far share one
       log-likelihood, bit for bit.  [group.(c)] is class [c]'s group, or
       -1 once its likelihood is 0; group [g] has log-likelihood [gll.(g)]
       and lowest class [first.(g)].  A read splits each group by the
       bit, numbering the parts in class order, so [first] ascends. *)
    let group = b.group and gll = b.gll and first = b.first and gw = b.gw in
    let next_ll = b.next_ll and next_first = b.next_first in
    let child = b.child in
    Array.fill group 0 n_c 0;
    let n_g = ref (if n_c > 0 then 1 else 0) in
    if n_c > 0 then begin
      gll.(0) <- 0.0;
      first.(0) <- 0
    end;
    let live_classes = ref n_c and survivors = ref n_f in
    (* The group holding the maximum-posterior fault of lowest index. *)
    let top = ref 0 in
    (* The live faults (posterior weight > 0) in ascending index: the
       offset of each one's table row, and at [pw.(2k + bit)] its weight
       times the probability that a read fails given its bit. *)
    let live_row = b.live_row and pw = b.pw in
    let n_live = ref 0 in
    (* The unread vectors, ascending, and their failure masses [q]. *)
    let uv = b.uv and qs = b.qs and n_u = ref n_v in
    for v = 0 to n_v - 1 do
      uv.(v) <- v
    done;
    let exps = ref 0 and cells = ref 0 in
    (* Softmax over the survivors, one [exp] per group; returns the
       partition sum (0 when every candidate has been eliminated), summed
       over the faults in ascending index as the weights of one fault at
       a time, and fills the live faults. *)
    let posterior () =
      if !n_g = 0 then 0.0
      else begin
        let max_ll = ref neg_infinity in
        for g = 0 to !n_g - 1 do
          max_ll := Float.max !max_ll gll.(g)
        done;
        top := -1;
        for g = 0 to !n_g - 1 do
          gw.(g) <- exp (gll.(g) -. !max_ll);
          if !top < 0 && gll.(g) = !max_ll then top := g
        done;
        exps := !exps + !n_g;
        let z = ref 0.0 and k = ref 0 in
        for i = 0 to n_f - 1 do
          let c = Array.unsafe_get class_of i in
          let g = Array.unsafe_get group c in
          if g >= 0 then begin
            let w = Array.unsafe_get gw g in
            z := !z +. w;
            if w > 0.0 then begin
              live_row.(!k) <- c * n_v;
              pw.(2 * !k) <- w *. p_fail_clear;
              pw.((2 * !k) + 1) <- w *. p_fail_set;
              incr k
            end
          end
        done;
        n_live := !k;
        !z
      end
    in
    (* The top class's posterior mass, its members' weights added one at a
       time: [n] additions of one weight need not round to [n] times it. *)
    let top_mass () =
      let w = gw.(!top) and m = ref 0.0 in
      for _ = 1 to dict.class_size.(first.(!top)) do
        m := !m +. w
      done;
      !m
    in
    (* Expected-information vector choice: q_v is the posterior
       probability the next read of v fails; the binary entropy of q_v
       scores how evenly v splits the surviving candidate mass (the
       set-level generalization of [distinguishing_vector]).  Exact ties
       between vectors are broken by the rounding of each q_v, so its
       additions keep their order, and strict [>] keeps the lowest index
       on ties.  Returns the chosen slot of [uv], or -1. *)
    let choose z =
      let n = !n_u in
      cells := !cells + (n * !n_live);
      let j = ref 0 in
      while !j < n do
        score4 table ~live_row ~pw ~n_live:!n_live ~uv ~last:(n - 1) ~qs !j;
        j := !j + 4
      done;
      let best = ref (-1) and best_score = ref 0.0 in
      for j = 0 to n - 1 do
        let score = binary_entropy (qs.(j) /. z) in
        if score > !best_score then begin
          best := j;
          best_score := score
        end
      done;
      !best
    in
    (* Add the read's term to every group, splitting it by the bit; a part
       whose likelihood reaches 0 dies. *)
    let unset = -2 in
    let update v o =
      let t_set = if o then l_nfp else l_fp
      and t_clear = if o then l_ff else l_nff in
      Array.fill child 0 (2 * !n_g) unset;
      let n = ref 0 in
      live_classes := 0;
      survivors := 0;
      for c = 0 to n_c - 1 do
        let g = group.(c) in
        if g >= 0 then begin
          let bit = Char.code (Bytes.unsafe_get table ((c * n_v) + v)) in
          let slot = (2 * g) + bit in
          if child.(slot) = unset then begin
            let ll = gll.(g) +. if bit = 1 then t_set else t_clear in
            if ll = neg_infinity then child.(slot) <- -1
            else begin
              next_ll.(!n) <- ll;
              next_first.(!n) <- c;
              child.(slot) <- !n;
              incr n
            end
          end;
          group.(c) <- child.(slot);
          if child.(slot) >= 0 then begin
            incr live_classes;
            survivors := !survivors + dict.class_size.(c)
          end
        end
      done;
      n_g := !n;
      Array.blit next_ll 0 gll 0 !n;
      Array.blit next_first 0 first 0 !n
    in
    let steps = ref [] in
    let reads = ref 0 in
    let finish stop z =
      let isolated, class_confidence =
        if !n_g = 0 then ([], 0.0)
        else (dict.classes.(first.(!top)), top_mass () /. z)
      in
      let all_pass =
        not (List.exists (fun (s : step) -> s.failed) !steps)
      in
      Atomic.set dict.spare
        (match spare with Some _ -> spare | None -> Some b);
      if Trace.is_enabled () then begin
        Trace.add sessions_c 1;
        Trace.add reads_c !reads;
        Trace.add groups_c !exps;
        Trace.add cells_c !cells
      end;
      { steps = List.rev !steps; reads = !reads; isolated; class_confidence;
        stop; all_pass }
    in
    let rec loop () =
      let z = posterior () in
      if z = 0.0 then finish Exhausted z
      else if !live_classes <= 1 then finish Isolated z
      else if top_mass () /. z >= config.confidence then finish Confident z
      else if !reads >= budget then finish Exhausted z
      else begin
        let j = choose z in
        if j < 0 then finish Exhausted z
        else begin
          let v = uv.(j) in
          Array.blit uv (j + 1) uv j (!n_u - j - 1);
          decr n_u;
          let o = read v dict.vectors.(v) in
          incr reads;
          update v o;
          steps := { vector = v; failed = o; survivors = !survivors } :: !steps;
          loop ()
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
