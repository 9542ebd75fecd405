(* ------------------------------------------------------------------ *)
(* Compiled traversal                                                  *)
(* ------------------------------------------------------------------ *)

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

let pressurized_region comp scratch ~open_valve ~into =
  pressurized_into comp scratch ~open_valve ~into;
  let seen = scratch.Compiled.seen and g = scratch.Compiled.gen in
  String.init (Compiled.num_nodes comp) (fun n ->
      if seen.(n) = g then '\001' else '\000')

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

(* Tarjan's bridge search over the open arcs, as an explicit-stack DFS.
   Closing a valve only ever removes pressure, so it changes what a node
   sees exactly when its arc is a bridge between that node and every
   source.  The sources act as one virtual root of discovery time 0 joined
   to each of them: every source starts with low-link 0, so no arc above a
   subtree that holds a source is a bridge (that side stays fed).  A tree
   arc p -> c is then a cut exactly when [low c > disc p], and it cuts off
   c's subtree, which holds a watched node exactly when the latest watched
   discovery came at or after [disc c] (whatever is discovered while c is
   on the stack lies below it).

   [seen] holds discovery times above the generation the search started
   at; the last time becomes the new generation, so BFS stamps stay
   fresh.  The CSR form is simple (two nodes share at most one arc pair),
   so the arc back to the parent is the one whose target is the parent.
   While c's subtree runs, p's cursor stays one past the tree arc to c. *)
let cut_valves_c comp (s : Compiled.scratch) ~open_valve ~watched ~on_cut =
  Compiled.extend_scratch comp s;
  let off = Compiled.adj_off comp in
  let nodes = Compiled.adj_node comp in
  let edges = Compiled.adj_edge comp in
  let sinks = Compiled.sink_node_mask comp in
  let num_cells = Compiled.num_cells comp in
  let disc = s.Compiled.seen and low = s.Compiled.low in
  let next = s.Compiled.next and stack = s.Compiled.queue in
  let start = s.Compiled.gen in
  let clock = ref start and sp = ref 0 and last_watched = ref start in
  let discover v =
    incr clock;
    let t = !clock in
    disc.(v) <- t;
    low.(v) <- (if v >= num_cells && not sinks.(v) then 0 else t);
    next.(v) <- off.(v);
    if watched v then last_watched := t;
    stack.(!sp) <- v;
    incr sp
  in
  let sources = Compiled.source_nodes comp in
  for i = 0 to Array.length sources - 1 do
    if disc.(sources.(i)) <= start then begin
      discover sources.(i);
      while !sp > 0 do
        let u = stack.(!sp - 1) in
        let k = next.(u) in
        if k < off.(u + 1) then begin
          next.(u) <- k + 1;
          let e = edges.(k) in
          if e < 0 || open_valve e then begin
            let v = nodes.(k) in
            if disc.(v) <= start then discover v
            else if (!sp < 2 || v <> stack.(!sp - 2)) && disc.(v) < low.(u)
            then low.(u) <- disc.(v)
          end
        end
        else begin
          decr sp;
          if !sp > 0 then begin
            let p = stack.(!sp - 1) in
            if low.(u) < low.(p) then low.(p) <- low.(u);
            let e = edges.(next.(p) - 1) in
            if e >= 0 && low.(u) > disc.(p) && !last_watched >= disc.(u) then
              on_cut e
          end
        end
      done
    end
  done;
  s.Compiled.gen <- !clock;
  !last_watched > start
