type scratch = {
  queue : int array;
  seen : int array;
  mutable gen : int;
  mutable low : int array;
  mutable next : int array;
  mutable marks : int array;
  mutable mark_gen : int;
}

type t = {
  fpva : Fpva.t;
  num_cells : int;
  num_ports : int;
  num_nodes : int;
  num_valves : int;
  adj_off : int array;
  adj_node : int array;
  adj_edge : int array;
  valve_edges : Coord.edge array;
  valve_ends : int array;
  source_nodes : int array;
  sink_node_mask : bool array;
  leak_pairs : (int * int) array option Atomic.t;
  spare : scratch option Atomic.t;
}

(* Directed arcs, emitted in a fixed order so the two CSR passes (degree
   count, slot fill) agree: cell-cell arcs row-major with the source cell,
   then the port tube arcs.  Emitting each unordered connection once per
   direction keeps the representation symmetric by construction. *)
let iter_arcs fpva ~rows ~cols ~num_cells ~ports emit =
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let cell = Coord.cell r c in
      if Fpva.cell_state fpva cell = Fpva.Fluid then
        List.iter
          (fun d ->
            let n = Coord.move cell d in
            if Fpva.in_bounds fpva n && Fpva.cell_state fpva n = Fpva.Fluid
            then begin
              let e = Coord.edge_towards cell d in
              let target = (n.Coord.row * cols) + n.Coord.col in
              match Fpva.edge_state fpva e with
              | Fpva.Wall -> ()
              | Fpva.Open_channel -> emit ((r * cols) + c) target (-1)
              | Fpva.Valve ->
                emit ((r * cols) + c) target (Fpva.valve_id fpva e)
            end)
          Coord.all_dirs
    done
  done;
  Array.iteri
    (fun i p ->
      let c = Fpva.port_cell fpva p in
      let cn = (c.Coord.row * cols) + c.Coord.col in
      emit (num_cells + i) cn (-1);
      emit cn (num_cells + i) (-1))
    ports

let of_fpva fpva =
  let rows = Fpva.rows fpva and cols = Fpva.cols fpva in
  let num_cells = rows * cols in
  let ports = Fpva.ports fpva in
  let num_ports = Array.length ports in
  let num_nodes = num_cells + num_ports in
  let iter_arcs emit = iter_arcs fpva ~rows ~cols ~num_cells ~ports emit in
  let adj_off = Array.make (num_nodes + 1) 0 in
  iter_arcs (fun u _ _ -> adj_off.(u + 1) <- adj_off.(u + 1) + 1);
  for i = 1 to num_nodes do
    adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
  done;
  let total = adj_off.(num_nodes) in
  let adj_node = Array.make (max total 1) 0 in
  let adj_edge = Array.make (max total 1) (-1) in
  let cursor = Array.sub adj_off 0 num_nodes in
  iter_arcs (fun u v e ->
      let k = cursor.(u) in
      adj_node.(k) <- v;
      adj_edge.(k) <- e;
      cursor.(u) <- k + 1);
  (* Valve [v]'s arc joins nodes [valve_ends.(2v)] and [valve_ends.(2v+1)];
     both stay [-1] for a valve without an arc. *)
  let num_valves = Fpva.num_valves fpva in
  let valve_ends = Array.make (2 * num_valves) (-1) in
  for u = 0 to num_nodes - 1 do
    for k = adj_off.(u) to adj_off.(u + 1) - 1 do
      let e = adj_edge.(k) in
      if e >= 0 && valve_ends.(2 * e) < 0 then begin
        valve_ends.(2 * e) <- u;
        valve_ends.((2 * e) + 1) <- adj_node.(k)
      end
    done
  done;
  let source_nodes = ref [] in
  let sink_node_mask = Array.make num_nodes false in
  Array.iteri
    (fun i p ->
      match p.Fpva.kind with
      | Fpva.Source -> source_nodes := (num_cells + i) :: !source_nodes
      | Fpva.Sink -> sink_node_mask.(num_cells + i) <- true)
    ports;
  {
    fpva;
    num_cells;
    num_ports;
    num_nodes;
    num_valves;
    adj_off;
    adj_node;
    adj_edge;
    valve_edges = Fpva.valves fpva;
    valve_ends;
    source_nodes = Array.of_list (List.rev !source_nodes);
    sink_node_mask;
    leak_pairs = Atomic.make None;
    spare = Atomic.make None;
  }

type Fpva.derived += Compiled of t

let get fpva =
  match Fpva.derived fpva with
  | Some (Compiled c) -> c
  | Some _ | None ->
    let c = of_fpva fpva in
    Fpva.set_derived fpva (Some (Compiled c));
    c

let fpva t = t.fpva

let num_cells t = t.num_cells

let num_ports t = t.num_ports

let num_nodes t = t.num_nodes

let num_valves t = t.num_valves

let cell_node t (c : Coord.cell) = (c.Coord.row * Fpva.cols t.fpva) + c.Coord.col

let node_cell t n = Coord.cell (n / Fpva.cols t.fpva) (n mod Fpva.cols t.fpva)

let port_node t i = t.num_cells + i

let adj_off t = t.adj_off

let adj_node t = t.adj_node

let adj_edge t = t.adj_edge

let valve_edge t i = t.valve_edges.(i)

let source_nodes t = t.source_nodes

let sink_node_mask t = t.sink_node_mask

(* Built on first use: only leak-class fault draws need it.  Two domains
   racing here both build the same table, and either may be kept. *)
let leak_pairs t =
  match Atomic.get t.leak_pairs with
  | Some pairs -> pairs
  | None ->
    let pairs = Control.leak_pairs t.fpva Control.Fluid_adjacency in
    Atomic.set t.leak_pairs (Some pairs);
    pairs

let create_scratch t =
  { queue = Array.make (max t.num_nodes 1) 0;
    seen = Array.make (max t.num_nodes 1) 0;
    gen = 0;
    low = [||];
    next = [||];
    marks = [||];
    mark_gen = 0 }

(* Simulator handles, one per campaign worker, never search for bridges or
   stamp valve sets, so their scratches go without these buffers. *)
let extend_scratch t s =
  if Array.length s.marks = 0 then begin
    s.low <- Array.make (max t.num_nodes 1) 0;
    s.next <- Array.make (max t.num_nodes 1) 0;
    s.marks <- Array.make (max t.num_valves 1) 0
  end

(* The spare is taken out of its slot for the whole call, so a concurrent
   or re-entrant traversal finds the slot empty and builds its own scratch
   instead of sharing buffers.  The sequential case puts back the very
   option block it took, so it allocates no new one. *)
let with_scratch t f =
  let spare = Atomic.exchange t.spare None in
  let s = match spare with Some s -> s | None -> create_scratch t in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.spare (match spare with Some _ -> spare | None -> Some s))
    (fun () -> f s)

(* ---------- bit-parallel batch traversal ---------- *)

let batch_width = 63

type batch_scratch = {
  bqueue : int array;
  bregrow : int array;
  bmask : int array;
  binq : int array;
  bedges : int array;
}

let create_batch_scratch t =
  let n = max t.num_nodes 1 in
  { bqueue = Array.make n 0;
    bregrow = Array.make n 0;
    bmask = Array.make n 0;
    binq = Array.make n 0;
    (* Non-valve arcs are rewritten to a sentinel edge id [num_valves];
       the caller keeps [open_mask.(num_valves) = -1] (all lanes open),
       which makes the hot loop's mask lookup branch-free. *)
    bedges =
      Array.map (fun e -> if e < 0 then t.num_valves else e) t.adj_edge }

(* Queue [n] at tail [tl] of a ring of [nn] slots; returns the next tail.
   A function of its arguments alone: the sweep's cursors are refs that
   no closure captures, so they stay unboxed and a sweep allocates
   nothing (a push closing over them cost 19 minor words a call). *)
let[@inline] ring_push inq q nn tl n =
  Array.unsafe_set inq n 1;
  Array.unsafe_set q tl n;
  if tl + 1 = nn then 0 else tl + 1

(* Masked multi-source sweep: lane [l] of every mask word simulates one
   trial, so one pass over the CSR arcs propagates pressure for up to
   [batch_width] valve-state assignments at once.  Unlike the scalar BFS a
   node can be visited more than once — its lane mask only ever grows, and
   each growth re-enqueues it — so the worklist is a ring ([binq] keeps a
   node in it at most once, bounding occupancy by [num_nodes]).  Masks are
   monotone under [lor], so the sweep reaches the per-lane reachability
   fixpoint and terminates.

   Grow lanes start at their fault-free region instead of the sources.
   Such a lane sees every valve of the region's assignment open, so each
   region node is reachable for it: its start is below its fixpoint.  The
   region is closed under the assignment's open arcs, so the lane can
   leave it only across a valve it opens beyond them, and such a valve
   needs a push only when exactly one of its ends lies in the region.
   Pushing that end and propagating over the lane's open arcs reaches the
   least fixpoint above the start, which is exactly the lane's reachable
   set: per lane the result is the scalar BFS's.  The other lanes flood
   from the sources.

   This is the campaign's innermost loop (hundreds of edge slots per
   sweep, one sweep per vector per 63 trials), so it is tuned on three
   axes.  (1) It trades the scalar BFS's generation stamps for one
   O(num_nodes) fill, which also seeds the grow lanes; [binq] needs no
   fill, since every push is matched by a pop that clears its flag.
   (2) It uses unchecked array access; every index is structurally in
   range: [bqueue]/[bregrow]/[binq]/[bmask] are sized [num_nodes] and
   only indexed by CSR node ids or a ring cursor (wrapped at
   [num_nodes]); [adj_*] slots come from the CSR offsets; edge ids index
   [open_mask], whose length is checked against [num_valves], and node
   ids index [region], whose length is checked against [num_nodes].
   (3) Regrowth is deferred: a first visit (mask was zero) joins the
   primary frontier, but a node whose mask *re*grows — a lane arriving
   late because a closed valve forced it on a detour — parks on
   [bregrow], drained only when the primary ring is empty.  Late lanes
   with different detour lengths thus coalesce into one combined front
   instead of each re-sweeping the downstream region on its own, which
   cuts node revisits (and so edge-slot scans) by roughly half on
   fault-heavy batches.  Pop order is irrelevant to the result: masks are
   monotone under [lor], so any chaotic iteration reaches the same unique
   fixpoint. *)
let pressurized_batch_into t (s : batch_scratch) ~active ~grow ~region
    ~opened ~num_opened ~open_mask ~into =
  let nn = t.num_nodes in
  if Array.length open_mask <= t.num_valves then
    invalid_arg "Compiled.pressurized_batch_into: open_mask too short";
  if String.length region < nn then
    invalid_arg "Compiled.pressurized_batch_into: region too short";
  (* Slot [num_valves] is the sentinel for non-valve arcs: always open. *)
  open_mask.(t.num_valves) <- -1;
  let mask = s.bmask in
  (* Grow lanes on every region node ('\001' negates to all ones), no
     lane anywhere else. *)
  for n = 0 to nn - 1 do
    Array.unsafe_set mask n
      (grow land -Char.code (String.unsafe_get region n))
  done;
  if active <> 0 then begin
    let off = t.adj_off and nodes = t.adj_node and edges = s.bedges in
    let q1 = s.bqueue and q2 = s.bregrow and inq = s.binq in
    (* [binq] keeps a node in at most one of the two rings, so each ring
       holds at most [num_nodes] entries. *)
    let h1 = ref 0 and t1 = ref 0 and n1 = ref 0 in
    let h2 = ref 0 and t2 = ref 0 and n2 = ref 0 in
    if active land lnot grow <> 0 then
      for i = 0 to Array.length t.source_nodes - 1 do
        let n = t.source_nodes.(i) in
        mask.(n) <- active;
        if inq.(n) = 0 then begin
          t1 := ring_push inq q1 nn !t1 n;
          incr n1
        end
      done;
    for i = 0 to num_opened - 1 do
      let v = opened.(i) in
      if open_mask.(v) land grow <> 0 then begin
        let a = t.valve_ends.(2 * v) and b = t.valve_ends.((2 * v) + 1) in
        if a >= 0 then begin
          let in_a = region.[a] <> '\000' and in_b = region.[b] <> '\000' in
          let n = if in_a = in_b then -1 else if in_a then a else b in
          if n >= 0 && inq.(n) = 0 then begin
            t1 := ring_push inq q1 nn !t1 n;
            incr n1
          end
        end
      end
    done;
    while !n1 > 0 || !n2 > 0 do
      let u =
        if !n1 > 0 then begin
          let u = Array.unsafe_get q1 !h1 in
          h1 := !h1 + 1;
          if !h1 = nn then h1 := 0;
          decr n1;
          u
        end
        else begin
          let u = Array.unsafe_get q2 !h2 in
          h2 := !h2 + 1;
          if !h2 = nn then h2 := 0;
          decr n2;
          u
        end
      in
      Array.unsafe_set inq u 0;
      let mu = Array.unsafe_get mask u in
      let hi = Array.unsafe_get off (u + 1) - 1 in
      for k = Array.unsafe_get off u to hi do
        let e = Array.unsafe_get edges k in
        let am = mu land Array.unsafe_get open_mask e in
        if am <> 0 then begin
          let v = Array.unsafe_get nodes k in
          let old = Array.unsafe_get mask v in
          let grown = old lor am in
          if grown <> old then begin
            Array.unsafe_set mask v grown;
            if Array.unsafe_get inq v = 0 then
              if old = 0 then begin
                t1 := ring_push inq q1 nn !t1 v;
                incr n1
              end
              else begin
                t2 := ring_push inq q2 nn !t2 v;
                incr n2
              end
          end
        end
      done
    done
  end;
  let base = t.num_cells in
  for i = 0 to t.num_ports - 1 do
    into.(i) <- mask.(base + i) land active
  done
