type node = Cell of Coord.cell | Port of int

(* ------------------------------------------------------------------ *)
(* Compiled traversal                                                  *)
(* ------------------------------------------------------------------ *)

let node_id comp = function
  | Cell c -> Compiled.cell_node comp c
  | Port i -> Compiled.port_node comp i

(* The one BFS engine: flat int worklist, generation-stamped visited set,
   zero allocation.  [stop] is tested on every newly marked node; once it
   holds the traversal halts early (marks made so far stay valid).
   Returns the id of the node that triggered [stop], or -1. *)
let run_bfs comp (s : Compiled.scratch) ~open_valve ~sources ~stop =
  let off = Compiled.adj_off comp in
  let nodes = Compiled.adj_node comp in
  let edges = Compiled.adj_edge comp in
  s.Compiled.gen <- s.Compiled.gen + 1;
  let g = s.Compiled.gen in
  let seen = s.Compiled.seen and queue = s.Compiled.queue in
  let head = ref 0 and tail = ref 0 in
  let hit = ref (-1) in
  let mark n =
    if seen.(n) <> g then begin
      seen.(n) <- g;
      if stop n then hit := n
      else begin
        queue.(!tail) <- n;
        incr tail
      end
    end
  in
  Array.iter mark sources;
  while !hit < 0 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = off.(u) to off.(u + 1) - 1 do
      if !hit < 0 then begin
        let v = nodes.(k) in
        if seen.(v) <> g then begin
          let e = edges.(k) in
          if e < 0 || open_valve e then mark v
        end
      end
    done
  done;
  !hit

let never_stop _ = false

let pressurized_into comp scratch ~open_valve ~into =
  ignore
    (run_bfs comp scratch ~open_valve ~sources:(Compiled.source_nodes comp)
       ~stop:never_stop);
  let seen = scratch.Compiled.seen and g = scratch.Compiled.gen in
  let base = Compiled.num_cells comp in
  for i = 0 to Compiled.num_ports comp - 1 do
    into.(i) <- seen.(base + i) = g
  done

let pressurized_sinks_c comp scratch ~open_valve =
  let into = Array.make (Compiled.num_ports comp) false in
  pressurized_into comp scratch ~open_valve ~into;
  into

let separates_c comp scratch ~closed_valve =
  let mask = Compiled.sink_node_mask comp in
  let open_valve v = not (closed_valve v) in
  run_bfs comp scratch ~open_valve ~sources:(Compiled.source_nodes comp)
    ~stop:(fun n -> mask.(n))
  < 0

let reachable_c comp scratch ~open_valve ~from target =
  (* Seed nodes are marked before the stop test runs on them, so a target
     that is itself a seed is found without expanding anything. *)
  run_bfs comp scratch ~open_valve ~sources:from ~stop:(fun n -> n = target)
  >= 0

(* ------------------------------------------------------------------ *)
(* Polymorphic API: thin wrappers that compile on demand               *)
(* ------------------------------------------------------------------ *)

(* The edge predicates of the polymorphic API are only ever consulted on
   valve edges (open channels pass and walls block unconditionally), so
   restricting them to valve ids loses nothing. *)
let open_valve_of_pred comp open_edge v = open_edge (Compiled.valve_edge comp v)

let reachable t ~open_edge ~from n =
  let comp = Compiled.get t in
  let from = Array.of_list (List.map (node_id comp) from) in
  Compiled.with_scratch comp (fun s ->
      reachable_c comp s ~open_valve:(open_valve_of_pred comp open_edge)
        ~from (node_id comp n))

let pressurized_sinks t ~open_edge =
  let comp = Compiled.get t in
  Compiled.with_scratch comp (fun s ->
      pressurized_sinks_c comp s
        ~open_valve:(open_valve_of_pred comp open_edge))

let separates t ~closed_edge =
  let comp = Compiled.get t in
  Compiled.with_scratch comp (fun s ->
      separates_c comp s
        ~closed_valve:(fun v -> closed_edge (Compiled.valve_edge comp v)))
