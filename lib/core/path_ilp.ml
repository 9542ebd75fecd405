module Lp = Fpva_milp.Lp
module Bb = Fpva_milp.Branch_bound

let mem x a = Array.exists (fun y -> y = x) a

(* [f neighbour edge] over node [n]'s arcs, in CSR order. *)
let map_arcs (p : Problem.t) n f =
  let lo = p.Problem.adj_off.(n) in
  List.init
    (p.Problem.adj_off.(n + 1) - lo)
    (fun i -> f p.Problem.adj_node.(lo + i) p.Problem.adj_edge.(lo + i))

(* Shared constraint block for one path slot.  [activation] is [None] for the
   single-path model ("the path exists") or [Some p_m] in the joint model
   (the slot may be empty when p_m = 0). *)
let add_path_block ?(loop_exclusion = true) lp (p : Problem.t) ~activation =
  let big_m = float_of_int (p.Problem.num_nodes + 1) in
  let v = Array.init p.Problem.num_edges (fun _ -> Lp.add_var lp Lp.Binary) in
  let c = Array.init p.Problem.num_nodes (fun _ -> Lp.add_var lp Lp.Binary) in
  let f =
    Array.init p.Problem.num_edges (fun _ ->
        Lp.add_var lp ~lower:(-.big_m) ~upper:big_m Lp.Continuous)
  in
  (* Degree constraints (eq. 1): interior nodes have exactly two incident
     path edges, terminals exactly one. *)
  for n = 0 to p.Problem.num_nodes - 1 do
    let incident = map_arcs p n (fun _ e -> (1.0, v.(e))) in
    let coeff = if p.Problem.terminal.(n) then -1.0 else -2.0 in
    Lp.add_constr lp ((coeff, c.(n)) :: incident) Lp.Eq 0.0
  done;
  (* Terminal nodes that are neither start nor end can never be on a path. *)
  for n = 0 to p.Problem.num_nodes - 1 do
    if p.Problem.terminal.(n)
       && (not (mem n p.Problem.starts))
       && not (mem n p.Problem.ends)
    then Lp.add_constr lp [ (1.0, c.(n)) ] Lp.Eq 0.0
  done;
  (* Exactly one start and one end (or none, for an inactive slot). *)
  let endpoint_sum nodes =
    let terms = Array.to_list (Array.map (fun n -> (1.0, c.(n))) nodes) in
    match activation with
    | None -> Lp.add_constr lp terms Lp.Eq 1.0
    | Some pm -> Lp.add_constr lp ((-1.0, pm) :: terms) Lp.Eq 0.0
  in
  endpoint_sum p.Problem.starts;
  endpoint_sum p.Problem.ends;
  (* Flow activation (eq. 3) and conservation (eq. 4), which exclude the
     disjoint loops of Fig. 6(c); skipped when [loop_exclusion] is off (the
     ablation showing why the paper needs them). *)
  if loop_exclusion then begin
    for e = 0 to p.Problem.num_edges - 1 do
      Lp.add_constr lp [ (1.0, f.(e)); (-.big_m, v.(e)) ] Lp.Le 0.0;
      Lp.add_constr lp [ (1.0, f.(e)); (big_m, v.(e)) ] Lp.Ge 0.0
    done;
    for n = 0 to p.Problem.num_nodes - 1 do
      if not (mem n p.Problem.starts) then begin
        let terms =
          map_arcs p n (fun _ e ->
              let a, _ = p.Problem.edge_ends.(e) in
              (* canonical orientation a->b: inflow at n is +f when n = b *)
              let sign = if a = n then -1.0 else 1.0 in
              (sign, f.(e)))
        in
        Lp.add_constr lp ((-1.0, c.(n)) :: terms) Lp.Eq 0.0
      end
    done
  end;
  (* Anti-masking (eq. 9). *)
  for e = 0 to p.Problem.num_edges - 1 do
    if p.Problem.pair_constrained.(e) then begin
      let a, b = p.Problem.edge_ends.(e) in
      Lp.add_constr lp [ (1.0, c.(a)); (1.0, c.(b)); (-1.0, v.(e)) ] Lp.Le 1.0
    end
  done;
  (* An active slot in the joint model must not exceed its indicator:
     v_e <= p_m, which is eq. (6) tightened per edge. *)
  (match activation with
  | None -> ()
  | Some pm ->
    Array.iter
      (fun ve -> Lp.add_constr lp [ (1.0, ve); (-1.0, pm) ] Lp.Le 0.0)
      v);
  (v, c, f)

(* Order the used edges into a node sequence by walking from the start. *)
let decode (p : Problem.t) used_edge node_on =
  let start = ref None in
  Array.iter (fun s -> if node_on.(s) && !start = None then start := Some s) p.Problem.starts;
  match !start with
  | None -> None
  | Some s ->
    let used = Array.copy used_edge in
    let rec walk nodes edges current =
      let rec next k =
        if k = p.Problem.adj_off.(current + 1) then None
        else if used.(p.Problem.adj_edge.(k)) then Some k
        else next (k + 1)
      in
      match next p.Problem.adj_off.(current) with
      | None -> (List.rev nodes, List.rev edges)
      | Some k ->
        let y = p.Problem.adj_node.(k) and e = p.Problem.adj_edge.(k) in
        used.(e) <- false;
        walk (y :: nodes) (e :: edges) y
    in
    let nodes, edges = walk [ s ] [] s in
    let path = { Problem.nodes; edges } in
    (match Problem.path_ok p path with Ok () -> Some path | Error _ -> None)

let single_path_lp ?loop_exclusion (p : Problem.t) ~weight =
  let lp = Lp.create Lp.Maximize in
  let v, _, _ = add_path_block ?loop_exclusion lp p ~activation:None in
  (* Tiny per-edge penalty prefers the shortest among equal-coverage paths. *)
  let eps = 1e-3 /. float_of_int (p.Problem.num_edges + 1) in
  let obj =
    Array.to_list (Array.mapi (fun e ve -> (weight.(e) -. eps, ve)) v)
  in
  Lp.set_objective lp obj;
  lp

type status = Proven | Truncated | Infeasible_claimed | Failed

let find_status ?bb_options ?loop_exclusion (p : Problem.t) ~weight =
  if Array.length weight <> p.Problem.num_edges then invalid_arg "Path_ilp.find";
  let lp = single_path_lp ?loop_exclusion p ~weight in
  let decode_sol (sol : Fpva_milp.Simplex.solution) =
    let used = Array.init p.Problem.num_edges (fun e -> sol.values.(e) > 0.5) in
    let node_on =
      Array.init p.Problem.num_nodes (fun n ->
          sol.values.(p.Problem.num_edges + n) > 0.5)
    in
    decode p used node_on
  in
  match Bb.solve ?options:bb_options lp with
  | Bb.Optimal sol -> (
    match decode_sol sol with
    | Some path -> (Some path, Proven)
    | None -> (None, Failed))
  | Bb.Feasible sol -> (decode_sol sol, Truncated)
  | Bb.Unknown -> (None, Truncated)
  | Bb.Infeasible -> (None, Infeasible_claimed)
  | Bb.Unbounded -> (None, Failed)

let find ?bb_options ?loop_exclusion (p : Problem.t) ~weight =
  fst (find_status ?bb_options ?loop_exclusion p ~weight)

let minimum_cover ?bb_options (p : Problem.t) ~max_paths =
  if max_paths < 1 then invalid_arg "Path_ilp.minimum_cover";
  let lp = Lp.create Lp.Minimize in
  let pm = Array.init max_paths (fun _ -> Lp.add_var lp Lp.Binary) in
  let blocks =
    Array.init max_paths (fun m ->
        add_path_block lp p ~activation:(Some pm.(m)))
  in
  (* Coverage (eq. 2). *)
  for e = 0 to p.Problem.num_edges - 1 do
    if p.Problem.required.(e) then begin
      let terms =
        Array.to_list (Array.map (fun (v, _, _) -> (1.0, v.(e))) blocks)
      in
      Lp.add_constr lp terms Lp.Ge 1.0
    end
  done;
  (* Symmetry breaking: used slots come first. *)
  for m = 0 to max_paths - 2 do
    Lp.add_constr lp [ (1.0, pm.(m)); (-1.0, pm.(m + 1)) ] Lp.Ge 0.0
  done;
  Lp.set_objective lp (Array.to_list (Array.map (fun x -> (1.0, x)) pm));
  match Bb.solve ?options:bb_options lp with
  | Bb.Optimal sol | Bb.Feasible sol ->
    let paths = ref [] in
    let ok = ref true in
    Array.iteri
      (fun m (v, c, _) ->
        if sol.values.(Lp.var_index pm.(m)) > 0.5 then begin
          let used =
            Array.map (fun ve -> sol.values.(Lp.var_index ve) > 0.5) v
          in
          let node_on =
            Array.map (fun cn -> sol.values.(Lp.var_index cn) > 0.5) c
          in
          match decode p used node_on with
          | Some path -> paths := path :: !paths
          | None -> ok := false
        end)
      blocks;
    let paths = List.rev !paths in
    if !ok && Problem.all_required_covered p paths then Some paths else None
  | Bb.Infeasible | Bb.Unbounded | Bb.Unknown -> None
