(** Primal grid-graph view of an FPVA: fluid cells and ports as nodes.

    Used by the pressure simulator (source reachability = pressure) and by
    the test generators (path existence, cut verification).  Edge
    passability is a parameter: callers decide which valves count as open
    — nominal states for generation, faulty states for simulation.

    Every traversal runs over the CSR adjacency of {!Compiled}: the
    [*_c] functions take a caller-reusable scratch and allocate nothing
    per BFS — this is what the simulator and campaign layers use — and
    the polymorphic wrappers below borrow one through
    {!Compiled.with_scratch}.  A node-by-node reference walk lives in the
    test suite ([test/graph_oracle.ml]), which checks both paths against
    it. *)

type node = Cell of Coord.cell | Port of int  (** index into [Fpva.ports] *)

(** {2 Polymorphic API (compiles on demand)}

    These wrappers fetch the cached {!Compiled.t} of the layout (building
    it on first use) and run the compiled traversal.  The predicates are
    consulted on valve edges only: open channels are always passable and
    walls never are.  Concurrent calls on one layout are safe: each
    borrows its own scratch. *)

val reachable :
  Fpva.t -> open_edge:(Coord.edge -> bool) -> from:node list -> node -> bool
(** [reachable t ~open_edge ~from n] — is [n] reachable from any node of
    [from]?  (BFS with early exit: stops as soon as [n] is marked.) *)

val pressurized_sinks :
  Fpva.t -> open_edge:(Coord.edge -> bool) -> bool array
(** For every port (indexed as in [Fpva.ports t]): [true] iff it is
    connected to some source port.  Entries for source ports report their
    own connectivity to {e another} source or themselves ([true]). *)

val separates : Fpva.t -> closed_edge:(Coord.edge -> bool) -> bool
(** [separates t ~closed_edge] — with exactly the edges for which
    [closed_edge] holds impassable (in addition to walls), is every sink
    disconnected from every source?  (Early exit on the first sink
    reached.) *)

(** {2 Compiled traversals}

    Valve passability is given per valve {e id} ([open_valve]), matching
    the [adj_edge] slots of the CSR form — no edge values are
    materialised on the hot path.  All functions reuse the given scratch
    and allocate nothing per call (except [pressurized_sinks_c]'s small
    result array; use {!pressurized_into} to avoid even that). *)

val node_id : Compiled.t -> node -> int

val pressurized_into :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  into:bool array -> unit
(** Write per-port pressure into [into] (length ≥ [num_ports]). *)

val pressurized_sinks_c :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) -> bool array

val separates_c :
  Compiled.t -> Compiled.scratch -> closed_valve:(int -> bool) -> bool

val reachable_c :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  from:int array -> int -> bool

val cut_valves_c :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  watched:(int -> bool) -> on_cut:(int -> unit) -> bool
(** [cut_valves_c t s ~open_valve ~watched ~on_cut] calls [on_cut v] once
    for every open valve [v] whose closing alone would cut some [watched]
    node that has pressure off from every source, and returns whether any
    [watched] node has pressure.  One bridge-finding DFS over the open
    arcs, O(nodes + arcs), instead of one pressure sweep per valve. *)
