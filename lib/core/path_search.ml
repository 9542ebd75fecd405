module Rng = Fpva_util.Rng
module Trace = Fpva_util.Trace

type params = { step_budget : int; seed : int }

let default_params = { step_budget = 200_000; seed = 0x5eed }

let calls_counter = Trace.counter "path_search.calls"
let steps_counter = Trace.counter "path_search.steps"
let dives_counter = Trace.counter "path_search.dives"

type best = {
  mutable score : float;
  mutable nodes : int list;
  mutable edges : int list;
  mutable len : int;  (** [List.length nodes] *)
  mutable found : bool;
}

exception Out_of_budget

exception Abort_dive

(* Unchecked array access, used only inside a dive ([explore], [visit],
   [release], [masking_ok]), whose indices [check_csr] has bounded before
   the first dive.  They must be primitives: each use is then compiled
   for its array's element kind, where a [let]-bound alias of
   [Array.unsafe_get] is a generic call and slower than checked access. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* The invariants that keep a dive's unchecked indices in range.
   [Problem.build] establishes them, but a [Problem.t]'s arrays stay
   mutable.  O(n + E). *)
let check_csr (p : Problem.t) =
  let fail what = invalid_arg ("Path_search.find: " ^ what) in
  let n = p.num_nodes and arcs = 2 * p.num_edges in
  if p.adj_off.(0) <> 0 || p.adj_off.(n) <> arcs then
    fail "adjacency offsets";
  for x = 0 to n - 1 do
    if p.adj_off.(x) > p.adj_off.(x + 1) then fail "adjacency offsets"
  done;
  for k = 0 to arcs - 1 do
    let y = p.adj_node.(k) and e = p.adj_edge.(k) in
    if y < 0 || y >= n then fail "adjacency node out of range";
    if e < 0 || e >= p.num_edges then fail "adjacency edge out of range"
  done;
  let in_range x = if x < 0 || x >= n then fail "start or end out of range" in
  Array.iter in_range p.starts;
  Array.iter in_range p.ends

(* Buffers shared by every BFS of one [find] call. *)
type bfs = {
  prev : int array;  (** -2 unseen, -1 root *)
  via : int array;
  queue : int array;
  blocked : bool array;
  nbr_node : int array;  (** one node's CSR slice, shuffled *)
  nbr_edge : int array;
}

let bfs_buffers (p : Problem.t) =
  let max_degree = ref 0 in
  for n = 0 to p.num_nodes - 1 do
    max_degree := max !max_degree (p.adj_off.(n + 1) - p.adj_off.(n))
  done;
  { prev = Array.make p.num_nodes (-2);
    via = Array.make p.num_nodes (-1);
    queue = Array.make p.num_nodes 0;
    blocked = Array.make p.num_nodes false;
    nbr_node = Array.make !max_degree 0;
    nbr_edge = Array.make !max_degree 0 }

let swap a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

(* BFS route with randomised neighbour order, avoiding [buf.blocked] nodes
   and passing through no terminal except the two endpoints.  Returns the
   node list from [src] to a goal, or None. *)
let bfs_route (p : Problem.t) rng buf ~src ~is_goal =
  Array.fill buf.prev 0 p.num_nodes (-2);
  buf.prev.(src) <- -1;
  buf.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and goal = ref (-1) in
  while !goal < 0 && !head < !tail do
    let x = buf.queue.(!head) in
    incr head;
    if is_goal x then goal := x
    else begin
      let lo = p.adj_off.(x) in
      let degree = p.adj_off.(x + 1) - lo in
      Array.blit p.adj_node lo buf.nbr_node 0 degree;
      Array.blit p.adj_edge lo buf.nbr_edge 0 degree;
      (* [Rng.shuffle_in_place]'s draws, applied to both columns *)
      for i = degree - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        swap buf.nbr_node i j;
        swap buf.nbr_edge i j
      done;
      for i = 0 to degree - 1 do
        let y = buf.nbr_node.(i) in
        if buf.prev.(y) = -2 && (not buf.blocked.(y))
           && ((not p.terminal.(y)) || is_goal y)
        then begin
          buf.prev.(y) <- x;
          buf.via.(y) <- buf.nbr_edge.(i);
          buf.queue.(!tail) <- y;
          incr tail
        end
      done
    end
  done;
  if !goal < 0 then None
  else begin
    let rec back nodes edges x =
      if x = src then (x :: nodes, edges)
      else back (x :: nodes) (buf.via.(x) :: edges) buf.prev.(x)
    in
    Some (back [] [] !goal)
  end

(* Constructive path through a specific edge: route start -> one endpoint,
   then the other endpoint -> end avoiding the first half.  Randomised
   retries give diversity; the result is audited by [Problem.path_ok] so all
   side conditions (terminals, anti-masking) hold. *)
let through (p : Problem.t) rng buf ~is_end ~edge ~attempts =
  let a, b = p.edge_ends.(edge) in
  let try_once () =
    let s = p.starts.(Rng.int rng (Array.length p.starts)) in
    let x, y = if Rng.bool rng then (a, b) else (b, a) in
    if p.terminal.(x) || p.terminal.(y) then None
    else begin
      Array.fill buf.blocked 0 p.num_nodes false;
      buf.blocked.(y) <- true;
      match bfs_route p rng buf ~src:s ~is_goal:(fun n -> n = x) with
      | None -> None
      | Some (nodes1, edges1) ->
        Array.fill buf.blocked 0 p.num_nodes false;
        List.iter (fun n -> buf.blocked.(n) <- true) nodes1;
        (match bfs_route p rng buf ~src:y ~is_goal:(fun n -> is_end.(n)) with
        | None -> None
        | Some (nodes2, edges2) ->
          let nodes = nodes1 @ nodes2 in
          let edges = edges1 @ (edge :: edges2) in
          let path = { Problem.nodes; edges } in
          (match Problem.path_ok p path with
          | Ok () -> Some path
          | Error _ -> None))
    end
  in
  let rec loop k = if k <= 0 then None else
    match try_once () with Some path -> Some path | None -> loop (k - 1)
  in
  loop attempts

(* Strategy: constructive seeding for the heaviest edges, then many
   randomised greedy dives with a small backtracking allowance.  A single
   exhaustive DFS on a grid gets trapped permuting the tail of its first
   deep path; bounded-backtrack dives spread the budget over many
   independent path shapes, and the constructive seeds guarantee that a
   sparse, targeted weight profile (mop-up, leakage victims, probes) is
   served even when blind dives would never stumble onto the target.

   The dives allocate nothing per step, and an expansion does O(1) work
   per candidate.  The path lives in arrays indexed by depth, and the
   candidates of a node on the path are kept, sorted, in that node's own
   CSR slice of [cand_*]: path nodes are distinct, so the slices of the
   nodes on the path never overlap.  Two per-node counts, updated in
   O(degree) as a node joins or leaves the path, give a candidate's key
   and its anti-masking test in O(1). *)
let search params (p : Problem.t) ~weight =
  let n = p.num_nodes in
  let adj_off = p.adj_off and adj_node = p.adj_node and adj_edge = p.adj_edge in
  let terminal = p.terminal and pair_constrained = p.pair_constrained in
  let rng = Rng.create params.seed in
  let budget = ref params.step_budget in
  let dives = ref 0 in
  let best =
    { score = neg_infinity; nodes = []; edges = []; len = 0; found = false }
  in
  let total_weight = Array.fold_left ( +. ) 0.0 weight in
  let perfect = ref false in
  let improve score nodes edges len =
    best.score <- score;
    best.nodes <- nodes;
    best.edges <- edges;
    best.len <- len;
    best.found <- true;
    if score >= total_weight -. 1e-9 then perfect := true
  in
  let beats score len =
    score > best.score +. 1e-9
    || (not best.found)
    || (abs_float (score -. best.score) <= 1e-9 && best.found && len < best.len)
  in
  let offer (path : Problem.path) =
    (* paths are simple, so edges are distinct *)
    let score = List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 path.edges in
    let len = List.length path.nodes in
    if beats score len then improve score path.nodes path.edges len
  in
  let is_end = Array.make n false in
  Array.iter (fun x -> is_end.(x) <- true) p.ends;
  (* Constructive seeds: a guaranteed-style candidate through each of the
     heaviest weighted edges. *)
  let heavy =
    let idx = Array.init p.num_edges (fun e -> e) in
    Array.sort (fun e f -> compare weight.(f) weight.(e)) idx;
    let out = ref [] in
    Array.iteri (fun k e -> if k < 3 && weight.(e) > 0.0 then out := e :: !out) idx;
    List.rev !out
  in
  if heavy <> [] then begin
    let buf = bfs_buffers p in
    List.iter
      (fun e ->
        match through p rng buf ~is_end ~edge:e ~attempts:12 with
        | Some path -> offer path
        | None -> ())
      heavy
  end;
  (* Randomised dives. *)
  let visited = Array.make n false in
  (* [free.(x)]: arcs from [x] to unvisited nodes.  [pinned.(x)]:
     pair-constrained arcs from [x] to visited nodes.  Both are reset with
     [visited] at each dive start, since [Abort_dive] unwinds without
     releasing the path. *)
  let degree = Array.init n (fun x -> adj_off.(x + 1) - adj_off.(x)) in
  let free = Array.make n 0 in
  let pinned = Array.make n 0 in
  (* Nodes with an arc to an end node: the only ones with end hops. *)
  let near_end = Array.make n false in
  for x = 0 to n - 1 do
    for k = adj_off.(x) to adj_off.(x + 1) - 1 do
      if is_end.(adj_node.(k)) then near_end.(x) <- true
    done
  done;
  let path_node = Array.make n 0 in
  let path_edge = Array.make n 0 in
  let path_score = Array.make n 0.0 in
  let cand_key = Array.make (2 * p.num_edges) 0.0 in
  let cand_node = Array.make (2 * p.num_edges) 0 in
  let cand_edge = Array.make (2 * p.num_edges) 0 in
  let backtracks = ref 0 in
  let visit x =
    visited.!(x) <- true;
    for k = adj_off.!(x) to adj_off.!(x + 1) - 1 do
      let y = adj_node.!(k) in
      free.!(y) <- free.!(y) - 1;
      if pair_constrained.!(adj_edge.!(k)) then pinned.!(y) <- pinned.!(y) + 1
    done
  in
  let release x =
    visited.!(x) <- false;
    for k = adj_off.!(x) to adj_off.!(x + 1) - 1 do
      let y = adj_node.!(k) in
      free.!(y) <- free.!(y) + 1;
      if pair_constrained.!(adj_edge.!(k)) then pinned.!(y) <- pinned.!(y) - 1
    done
  in
  (* Anti-masking: stepping onto [x] via [f] is legal only if no
     pair-constrained edge links [x] to an already-visited node (other than
     through [f] itself): such an edge could never be traversed any more.
     The other end of [f] is the visited node being expanded, so [f] is one
     of [x]'s pinned arcs exactly when it is pair-constrained. *)
  let masking_ok x f =
    pinned.!(x) = if pair_constrained.!(f) then 1 else 0
  in
  (* The end hop from depth [d] to [final] over [final_edge]. *)
  let record d final final_edge =
    if masking_ok final final_edge then begin
      let score = path_score.(d) +. weight.(final_edge) in
      if beats score (d + 2) then begin
        let nodes = ref [ final ] and edges = ref [ final_edge ] in
        for i = d downto 1 do
          nodes := path_node.(i) :: !nodes;
          edges := path_edge.(i) :: !edges
        done;
        improve score (path_node.(0) :: !nodes) !edges (d + 2)
      end
    end
  in
  let rec explore d =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let current = path_node.!(d) in
    let lo = adj_off.!(current) and hi = adj_off.!(current + 1) in
    (* Harvest end hops. *)
    if near_end.!(current) then
      for k = lo to hi - 1 do
        let y = adj_node.!(k) in
        if (not !perfect) && is_end.!(y) && not visited.!(y) then
          record d y adj_edge.!(k)
      done;
    if not !perfect then begin
      (* One draw per admissible candidate in adjacency order; a stable
         insertion sort on the keys.  The jitter is [Rng.float rng 0.5],
         formed from [Rng.bits53] so that no boxed float comes back. *)
      let count = ref 0 in
      for k = lo to hi - 1 do
        let y = adj_node.!(k) and e = adj_edge.!(k) in
        if (not (visited.!(y) || terminal.!(y))) && masking_ok y e then begin
          let key =
            (-.weight.!(e) *. 1024.0)
            +. float_of_int free.!(y)
            +. (0.5 *. (float_of_int (Rng.bits53 rng) /. 9007199254740992.0))
          in
          let i = ref (lo + !count) in
          while !i > lo && cand_key.!(!i - 1) > key do
            cand_key.!(!i) <- cand_key.!(!i - 1);
            cand_node.!(!i) <- cand_node.!(!i - 1);
            cand_edge.!(!i) <- cand_edge.!(!i - 1);
            decr i
          done;
          cand_key.!(!i) <- key;
          cand_node.!(!i) <- y;
          cand_edge.!(!i) <- e;
          incr count
        end
      done;
      for i = lo to lo + !count - 1 do
        if not !perfect then begin
          let y = cand_node.!(i) and e = cand_edge.!(i) in
          visit y;
          path_node.!(d + 1) <- y;
          path_edge.!(d + 1) <- e;
          path_score.!(d + 1) <- path_score.!(d) +. weight.!(e);
          explore (d + 1);
          release y;
          (* Returning here means the child subtree was abandoned: spend one
             unit of this dive's backtracking allowance. *)
          decr backtracks;
          if !backtracks < 0 then raise Abort_dive
        end
      done
    end
  in
  let dive start =
    incr dives;
    Array.fill visited 0 n false;
    Array.blit degree 0 free 0 n;
    Array.fill pinned 0 n 0;
    visit start;
    path_node.(0) <- start;
    path_score.(0) <- 0.0;
    (* Allowance scales with instance size: enough to wriggle out of small
       pockets, not enough to stagnate in one region. *)
    backtracks := 16 + (n / 8);
    try explore 0 with Abort_dive -> ()
  in
  (try
     let starts = Array.copy p.starts in
     while not !perfect && !budget > 0 do
       Rng.shuffle_in_place rng starts;
       Array.iter (fun s -> if not !perfect then dive s) starts
     done
   with Out_of_budget -> ());
  Trace.add steps_counter (params.step_budget - !budget);
  Trace.add dives_counter !dives;
  if best.found then Some { Problem.nodes = best.nodes; edges = best.edges }
  else None

let find ?(params = default_params) (p : Problem.t) ~weight =
  if Array.length weight <> p.num_edges then invalid_arg "Path_search.find";
  Array.iter
    (fun w ->
      if Float.is_nan w then invalid_arg "Path_search.find: NaN weight"
      else if w < 0.0 then invalid_arg "Path_search.find: negative weight")
    weight;
  check_csr p;
  Trace.incr calls_counter;
  (* No start or no end: no admissible path exists. *)
  if Array.length p.starts = 0 || Array.length p.ends = 0 then None
  else search params p ~weight
