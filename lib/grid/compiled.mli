(** Compiled flat-grid core: one-time CSR adjacency over dense node ids.

    A chip layout is static while vectors are applied, yet a node-by-node
    walk re-derives adjacency on every node visit — a fresh list per
    neighbour query and an O(ports) rescan per cell.  [Compiled.t] pays
    those costs once per layout: every node gets a dense integer id
    (cells first, row-major, then ports), and adjacency is stored as the
    classic compressed-sparse-row triplet

    - [adj_off]: per node, the offset of its arc slice ([num_nodes + 1]
      entries, monotone, [adj_off.(0) = 0]);
    - [adj_node]: the target node of each directed arc;
    - [adj_edge]: the valve id crossed by the arc, or [-1] when the arc
      needs no permission (an open channel or the port–cell tube).

    Arcs exist only where a node-by-node walk would step: between
    adjacent fluid cells whose shared edge is not a wall, and between a
    port and its boundary cell (both directions, so cell–cell and
    port–cell arcs are always symmetric).  Whether a valve arc is
    passable is the {e caller's} decision at traversal time — the
    compiled form is valid for every valve-state assignment, which is
    what lets one compilation serve a whole fault-injection campaign.

    Traversals live in {!Graph} ([pressurized_sinks_c] and friends); this
    module owns construction, the per-layout cache, and the reusable
    scratch buffers that make a BFS allocation-free. *)

type t

val of_fpva : Fpva.t -> t
(** Compile the layout (unconditionally). *)

val get : Fpva.t -> t
(** The compiled form of a layout, cached on the [Fpva.t] itself and
    invalidated by every layout mutation — repeated calls between
    mutations return the same compilation (physical equality). *)

val fpva : t -> Fpva.t
(** The layout this compilation was built from. *)

(** {2 Dimensions and id layout} *)

val num_cells : t -> int
(** [rows * cols]; obstacle cells keep their id but have no arcs. *)

val num_ports : t -> int

val num_nodes : t -> int
(** [num_cells + num_ports]. *)

val num_valves : t -> int

val cell_node : t -> Coord.cell -> int
(** Row-major cell id: [row * cols + col]. *)

val node_cell : t -> int -> Coord.cell
(** Inverse of {!cell_node} on cell ids ([0 .. num_cells - 1]). *)

val port_node : t -> int -> int
(** Node id of port [i] (as indexed by [Fpva.ports]): [num_cells + i]. *)

(** {2 CSR adjacency} *)

val adj_off : t -> int array

val adj_node : t -> int array

val adj_edge : t -> int array
(** Valve id of the arc's edge, [-1] for open channels and port hops. *)

val valve_edge : t -> int -> Coord.edge
(** The primal edge of a valve id (precomputed [Fpva.edge_of_valve]). *)

(** {2 Precomputed role sets} *)

val source_nodes : t -> int array
(** Node ids of source ports, in port order. *)

val sink_node_mask : t -> bool array
(** Per node id: is it a sink-port node?  (Early-exit test for
    separation checks.) *)

val leak_pairs : t -> (int * int) array
(** [Control.leak_pairs] under [Fluid_adjacency], built on the first call
    and kept with the compilation: the table fault draws pick control
    leaks from.  Shared; do not mutate. *)

(** {2 Scratch buffers}

    A BFS needs a worklist and a visited set.  [scratch] holds both as
    flat int arrays sized to the node count; the visited set is
    generation-stamped, so reusing a scratch across traversals costs one
    integer bump instead of an O(nodes) clear, and a traversal allocates
    nothing.  The bridge search ({!Graph.cut_valves_c}) uses the same
    worklist as its stack and the stamps as discovery times, plus two
    more node arrays.  [marks] lets a caller hand a valve set to a
    traversal the same way: stamp the set's valves with a fresh
    [mark_gen] and test [marks.(v) = g], with no per-call mask.  Those
    three arrays start empty; {!extend_scratch} allocates them.  A
    scratch is tied to the compilation it was created from and must not
    be shared across concurrently running traversals. *)

type scratch = {
  queue : int array;  (** BFS worklist or DFS stack, capacity [num_nodes] *)
  seen : int array;
      (** generation stamps, length [num_nodes]; a DFS writes discovery
          times above the current [gen] and leaves [gen] at the last *)
  mutable gen : int;  (** current generation; bumped per traversal *)
  mutable low : int array;  (** DFS low-links, length [num_nodes] *)
  mutable next : int array;  (** DFS per-node arc cursors, length [num_nodes] *)
  mutable marks : int array;  (** per-valve stamps, length [num_valves] *)
  mutable mark_gen : int;  (** last stamp handed out; bump before use *)
}

val create_scratch : t -> scratch
(** A scratch whose [low], [next] and [marks] are empty. *)

val extend_scratch : t -> scratch -> unit
(** Allocate the scratch's [low], [next] and [marks] unless it already
    has them.  Needed before the bridge search or stamping [marks];
    scratches that only run BFS sweeps, one per campaign worker, never
    pay for them. *)

val with_scratch : t -> (scratch -> 'a) -> 'a
(** [with_scratch t f] runs [f] on the compilation's spare scratch and
    puts it back afterwards (also when [f] raises).  While the spare is
    out, other calls — from another domain or thread, or nested inside
    [f] — each get a fresh {!create_scratch}, so no two running
    traversals ever share buffers.  Used by the polymorphic {!Graph}
    wrappers, [Dual.is_cut], [Flow_path.tested_valves] and
    [Test_vector.golden_response]. *)

(** {2 Bit-parallel batch traversal}

    One sweep over the CSR arcs can simulate up to {!batch_width}
    valve-state assignments at once: lane [l] (bit [l]) of every mask
    word belongs to trial [l].  [open_mask.(v)] says which lanes see
    valve [v] open; pressure propagates as the [lor] of the arc-masked
    lane sets, which per lane is exactly the scalar reachability the
    plain BFS computes.  [Fpva_sim.Simulator] packs fault-injection
    trials into the lanes; the differential qcheck property in
    [test/suite_compiled.ml] pins per-lane equivalence with
    {!Graph.pressurized_into}. *)

val batch_width : int
(** Lanes per batch: 63, every bit of a native [int]. *)

type batch_scratch = {
  bqueue : int array;  (** primary ring: first-visit frontier *)
  bregrow : int array;
      (** secondary ring: regrown nodes, drained when [bqueue] empties so
          late (detoured) lane fronts merge into one combined sweep *)
  bmask : int array;
      (** per-node lane mask, set to the grow lanes on region nodes and
          to zero elsewhere at sweep start *)
  binq : int array;
      (** in-worklist flags (a node queues at most once); all zero
          between sweeps *)
  bedges : int array;
      (** [adj_edge] with non-valve arcs rewritten to the sentinel edge id
          [num_valves], so the hot loop's open-mask lookup is branch-free *)
}

val create_batch_scratch : t -> batch_scratch

val pressurized_batch_into :
  t -> batch_scratch -> active:int -> grow:int -> region:string ->
  opened:int array -> num_opened:int -> open_mask:int array ->
  into:int array -> unit
(** [pressurized_batch_into t s ~active ~grow ~region ~opened ~num_opened
    ~open_mask ~into] writes, for every port [i], the set of [active]
    lanes whose trial pressurises that port ([into] must have
    [num_ports] slots).  [open_mask] needs [num_valves + 1] slots: one
    per valve, plus a trailing scratch slot the sweep overwrites with
    [-1] (the always-open sentinel for non-valve arcs).  Lanes outside
    [active] come back 0.

    [grow] (a subset of [active]) names the lanes that only add open
    valves to one fault-free assignment; [region] is that assignment's
    pressurized node set, byte [n] ['\001'] iff node [n] is reached
    (as [Test_vector.region] stores it), so it holds every source.  A
    grow lane must see every valve open that the assignment opens, and
    [opened.(0 .. num_opened - 1)] must list every valve some grow lane
    sees open beyond them (extra entries cost a check each).  The sweep
    starts the grow lanes on the region and pushes only the region ends
    of those valves; every other lane floods from the sources.  Pass
    [~grow:0 ~num_opened:0] for a plain sweep, with any [region] of
    [num_nodes] bytes.  It allocates only its worklist cursors, a few
    words per call; the scratch must not be shared across concurrent
    sweeps. *)
