(* Reference implementations of dictionary diagnosis, kept only to check
   the indexed dictionary against: the list-keyed grouping into
   equivalence classes, the entry-by-entry [diagnose] filter, and the
   adaptive session that re-derives the surviving classes from whole
   syndromes after every read.  They work on plain (fault, syndrome)
   entries computed with [Diagnosis.syndrome_of], so they need no access
   to the abstract dictionary. *)

open Fpva_sim
module Seq = Diagnosis.Sequential

type entry = Fault.t * Diagnosis.syndrome

let entries fpva ~vectors ~faults : entry array =
  Array.of_list
    (List.map
       (fun f -> (f, Diagnosis.syndrome_of fpva ~vectors ~faults:[ f ]))
       faults)

let all_pass s = Array.for_all not s

let diagnose (entries : entry array) observed =
  if all_pass observed then []
  else
    Array.to_list entries
    |> List.filter_map (fun (f, s) -> if s = observed then Some f else None)

let equivalence_classes (entries : entry array) =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun (f, s) ->
      let key = Array.to_list s in
      (match Hashtbl.find_opt table key with
      | Some fs -> Hashtbl.replace table key (f :: fs)
      | None ->
        Hashtbl.add table key [ f ];
        order := key :: !order))
    entries;
  List.rev_map (fun key -> List.rev (Hashtbl.find table key)) !order

let resolution entries =
  Fpva_util.Stats.ratio
    (List.length (equivalence_classes entries))
    (Array.length entries)

let binary_entropy q =
  if q <= 0.0 || q >= 1.0 then 0.0
  else -.((q *. log q) +. ((1.0 -. q) *. log (1.0 -. q)))

(* The session as first written: every step groups the survivors by
   hashing their full syndromes and compares whole [bool array]s to find
   the top class.  Configs are assumed valid. *)
let run ?(config = Seq.ideal) ~vectors (entries : entry array) ~read =
  let vectors = Array.of_list vectors in
  let n_f = Array.length entries in
  let n_v = Array.length vectors in
  let budget =
    match config.Seq.max_reads with None -> n_v | Some k -> min k n_v
  in
  let l_fp =
    if config.Seq.false_pass > 0.0 then log config.Seq.false_pass
    else neg_infinity
  in
  let l_nfp = log (1.0 -. config.Seq.false_pass) in
  let l_ff =
    if config.Seq.false_fail > 0.0 then log config.Seq.false_fail
    else neg_infinity
  in
  let l_nff = log (1.0 -. config.Seq.false_fail) in
  let p_fail s =
    if s then 1.0 -. config.Seq.false_pass else config.Seq.false_fail
  in
  let syndrome i = snd entries.(i) in
  let ll = Array.make n_f 0.0 in
  let weights = Array.make n_f 0.0 in
  let observed : bool option array = Array.make n_v None in
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
  let surviving_classes () =
    let table = Hashtbl.create 32 in
    let n = ref 0 in
    for i = 0 to n_f - 1 do
      if ll.(i) > neg_infinity then begin
        let key = Array.to_list (syndrome i) in
        if not (Hashtbl.mem table key) then begin
          Hashtbl.add table key ();
          incr n
        end
      end
    done;
    !n
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
        let ts = syndrome top in
        let members = ref [] in
        let mass = ref 0.0 in
        for i = n_f - 1 downto 0 do
          if ll.(i) > neg_infinity && syndrome i = ts then begin
            members := fst entries.(i) :: !members;
            mass := !mass +. weights.(i)
          end
        done;
        (!members, if z > 0.0 then !mass /. z else 0.0)
      end
    in
    let all_pass = not (List.exists (fun (s : Seq.step) -> s.Seq.failed) !steps) in
    { Seq.steps = List.rev !steps; reads = !reads; isolated; class_confidence;
      stop; all_pass }
  in
  let rec loop () =
    let z = posterior () in
    if z = 0.0 then finish Seq.Exhausted z
    else if surviving_classes () <= 1 then finish Seq.Isolated z
    else begin
      let top = top_index () in
      let ts = syndrome top in
      let top_mass = ref 0.0 in
      for i = 0 to n_f - 1 do
        if ll.(i) > neg_infinity && syndrome i = ts then
          top_mass := !top_mass +. weights.(i)
      done;
      if !top_mass /. z >= config.Seq.confidence then finish Seq.Confident z
      else if !reads >= budget then finish Seq.Exhausted z
      else begin
        let best = ref (-1) in
        let best_score = ref 0.0 in
        for v = 0 to n_v - 1 do
          if observed.(v) = None then begin
            let q = ref 0.0 in
            for i = 0 to n_f - 1 do
              if weights.(i) > 0.0 then
                q := !q +. (weights.(i) *. p_fail (syndrome i).(v))
            done;
            let score = binary_entropy (!q /. z) in
            if score > !best_score then begin
              best := v;
              best_score := score
            end
          end
        done;
        if !best < 0 then finish Seq.Exhausted z
        else begin
          let v = !best in
          let o = read v vectors.(v) in
          observed.(v) <- Some o;
          incr reads;
          for i = 0 to n_f - 1 do
            let term =
              match ((syndrome i).(v), o) with
              | true, true -> l_nfp
              | true, false -> l_fp
              | false, true -> l_ff
              | false, false -> l_nff
            in
            ll.(i) <- ll.(i) +. term
          done;
          steps :=
            { Seq.vector = v; failed = o; survivors = survivors () } :: !steps;
          loop ()
        end
      end
    end
  in
  loop ()
