(** Primal grid-graph view of an FPVA: fluid cells and ports as nodes.

    Used by the pressure simulator (source reachability = pressure) and by
    the test generators (path existence, cut verification).  Edge
    passability is a parameter: callers decide which valves count as open
    — nominal states for generation, faulty states for simulation.

    Every traversal runs over the CSR adjacency of {!Compiled} and takes
    a caller-reusable scratch, so none allocates per BFS — this is what
    the simulator and campaign layers use.  A node-by-node reference walk
    lives in the test suite ([test/graph_oracle.ml]), with polymorphic
    wrappers over these traversals; the tests check the two against each
    other. *)

(** {2 Compiled traversals}

    Valve passability is given per valve {e id} ([open_valve]), matching
    the [adj_edge] slots of the CSR form — no edge values are
    materialised on the hot path.  Open channels are always passable and
    walls never are.  All functions reuse the given scratch and allocate
    nothing per call (except [pressurized_sinks_c]'s small result array;
    use {!pressurized_into} to avoid even that). *)

val pressurized_into :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  into:bool array -> unit
(** Write per-port pressure into [into] (length ≥ [num_ports]). *)

val pressurized_region :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  into:bool array -> string
(** {!pressurized_into}, also returning every node the sweep reaches:
    byte [n] is ['\001'] iff node [n] has pressure, ['\000'] otherwise. *)

val pressurized_sinks_c :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) -> bool array

val separates_c :
  Compiled.t -> Compiled.scratch -> closed_valve:(int -> bool) -> bool

val cut_valves_c :
  Compiled.t -> Compiled.scratch -> open_valve:(int -> bool) ->
  watched:(int -> bool) -> on_cut:(int -> unit) -> bool
(** [cut_valves_c t s ~open_valve ~watched ~on_cut] calls [on_cut v] once
    for every open valve [v] whose closing alone would cut some [watched]
    node that has pressure off from every source, and returns whether any
    [watched] node has pressure.  One bridge-finding DFS over the open
    arcs, O(nodes + arcs), instead of one pressure sweep per valve. *)
