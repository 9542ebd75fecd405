type t = {
  num_nodes : int;
  num_edges : int;
  adj_off : int array;
  adj_node : int array;
  adj_edge : int array;
  edge_ends : (int * int) array;
  required : bool array;
  pair_constrained : bool array;
  terminal : bool array;
  starts : int array;
  ends : int array;
}

let build ~num_nodes ~edges ~required ?pair_constrained ?terminal
    ~starts ~ends () =
  let num_edges = Array.length edges in
  if Array.length required <> num_edges then
    invalid_arg "Problem.build: required size";
  let pair_constrained =
    match pair_constrained with
    | Some a ->
      if Array.length a <> num_edges then
        invalid_arg "Problem.build: pair_constrained size";
      a
    | None -> Array.make num_edges false
  in
  let terminal =
    match terminal with
    | Some a ->
      if Array.length a <> num_nodes then
        invalid_arg "Problem.build: terminal size";
      a
    | None -> Array.make num_nodes false
  in
  let check_node n = if n < 0 || n >= num_nodes then invalid_arg "Problem.build: node id" in
  Array.iter
    (fun (a, b) ->
      check_node a;
      check_node b;
      if a = b then invalid_arg "Problem.build: self loop")
    edges;
  Array.iter check_node starts;
  Array.iter check_node ends;
  (* CSR adjacency; each node's slice lists its edges by descending id. *)
  let adj_off = Array.make (num_nodes + 1) 0 in
  Array.iter
    (fun (a, b) ->
      adj_off.(a + 1) <- adj_off.(a + 1) + 1;
      adj_off.(b + 1) <- adj_off.(b + 1) + 1)
    edges;
  for i = 1 to num_nodes do
    adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
  done;
  let adj_node = Array.make (2 * num_edges) 0 in
  let adj_edge = Array.make (2 * num_edges) 0 in
  let cursor = Array.sub adj_off 0 num_nodes in
  let push u v e =
    let k = cursor.(u) in
    adj_node.(k) <- v;
    adj_edge.(k) <- e;
    cursor.(u) <- k + 1
  in
  for e = num_edges - 1 downto 0 do
    let a, b = edges.(e) in
    push a b e;
    push b a e
  done;
  { num_nodes; num_edges; adj_off; adj_node; adj_edge; edge_ends = edges;
    required; pair_constrained; terminal; starts; ends }

let num_required t =
  Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 t.required

let dead_end t e =
  let kept = Array.copy t.terminal in
  Array.iter (fun n -> kept.(n) <- true) t.starts;
  Array.iter (fun n -> kept.(n) <- true) t.ends;
  let degree =
    Array.init t.num_nodes (fun n -> t.adj_off.(n + 1) - t.adj_off.(n))
  in
  let pruned = Array.make t.num_nodes false in
  let rec prune n =
    if degree.(n) <= 1 && not (pruned.(n) || kept.(n)) then begin
      pruned.(n) <- true;
      for k = t.adj_off.(n) to t.adj_off.(n + 1) - 1 do
        let m = t.adj_node.(k) in
        degree.(m) <- degree.(m) - 1;
        prune m
      done
    end
  in
  for n = 0 to t.num_nodes - 1 do
    prune n
  done;
  let a, b = t.edge_ends.(e) in
  pruned.(a) || pruned.(b)

type path = { nodes : int list; edges : int list }

let mem_array x a = Array.exists (fun y -> y = x) a

let path_ok t p =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match p.nodes with
  | [] -> fail "empty path"
  | [ n ] -> fail "single-node path (node %d)" n
  | first :: _ ->
    let rec last = function
      | [ x ] -> x
      | _ :: rest -> last rest
      | [] -> assert false
    in
    let final = last p.nodes in
    if not (mem_array first t.starts) then fail "start %d not a start node" first
    else if not (mem_array final t.ends) then fail "end %d not an end node" final
    else if List.length p.edges <> List.length p.nodes - 1 then
      fail "edge count mismatch"
    else begin
      (* simplicity *)
      let seen = Hashtbl.create 16 in
      let dup = List.exists (fun n -> Hashtbl.mem seen n || (Hashtbl.add seen n (); false)) p.nodes in
      if dup then fail "repeated node"
      else begin
        (* consecutive adjacency via the claimed edge *)
        let rec steps ns es =
          match (ns, es) with
          | ([] | [ _ ]), [] -> Ok ()
          | a :: (b :: _ as rest), e :: es' ->
            let x, y = t.edge_ends.(e) in
            if (x = a && y = b) || (x = b && y = a) then steps rest es'
            else fail "edge %d does not join %d-%d" e a b
          | _, _ -> fail "edge count mismatch"
        in
        match steps p.nodes p.edges with
        | Error _ as err -> err
        | Ok () ->
          (* terminal discipline: terminal nodes only at the extremities *)
          let interior =
            match p.nodes with
            | [] | [ _ ] -> []
            | _ :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
          in
          if List.exists (fun n -> t.terminal.(n)) interior then
            fail "terminal node in path interior"
          else begin
            (* anti-masking: visiting both endpoints of a pair-constrained
               edge requires traversing it *)
            let used = Hashtbl.create 16 in
            List.iter (fun e -> Hashtbl.replace used e ()) p.edges;
            let visited n = Hashtbl.mem seen n in
            let bad = ref None in
            Array.iteri
              (fun e (a, b) ->
                if t.pair_constrained.(e) && visited a && visited b
                   && not (Hashtbl.mem used e)
                then bad := Some e)
              t.edge_ends;
            match !bad with
            | Some e -> fail "anti-masking violation at edge %d" e
            | None -> Ok ()
          end
      end
    end

let covered t paths =
  let cov = Array.make t.num_edges false in
  List.iter (fun p -> List.iter (fun e -> cov.(e) <- true) p.edges) paths;
  cov

let all_required_covered t paths =
  let cov = covered t paths in
  let ok = ref true in
  Array.iteri (fun e r -> if r && not cov.(e) then ok := false) t.required;
  !ok

let uncovered_required t paths =
  let cov = covered t paths in
  let out = ref [] in
  for e = t.num_edges - 1 downto 0 do
    if t.required.(e) && not cov.(e) then out := e :: !out
  done;
  !out
