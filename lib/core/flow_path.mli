(** Flow-path test generation (paper Section III-B).

    A flow path is a simple source-to-sink route; applied as a test vector
    it opens exactly its own valves.  A missing sink pressure then flags a
    stuck-at-0 valve on the path.  Every valve must lie on at least one
    generated path.  {!cover} is the one flow-path cover, the {!Cover}
    driver over the channel-contracted instance; both the direct model
    ({!generate}) and the hierarchy's fallback ({!Hierarchy}) run it.

    The instance reads cell adjacency from {!Fpva_grid.Compiled}'s arcs.
    Two helpers are shared with the other generators: {!with_ports}
    attaches the ports to an instance (here and in the hierarchy's block
    graph), and {!of_cells} turns a cell route into a path (here, in the
    hierarchy's stitching and in {!Suite_io}). *)

open Fpva_grid

type t = {
  cells : Coord.cell list;  (** visited fluid cells, source side first *)
  edges : Coord.edge list;  (** internal edges traversed, in step order *)
  valve_ids : int list;  (** the [Valve] edges among [edges] *)
  source : int;  (** port index (into [Fpva.ports]) the path starts at *)
  sink : int;  (** port index the path ends at *)
}

val of_cells : Fpva.t -> source:int -> sink:int -> Coord.cell list -> t
(** The path along a cell route: its edges in step order and the valves
    among them.
    @raise Invalid_argument if two consecutive cells are not adjacent. *)

val with_ports :
  Fpva.t ->
  num_inner:int ->
  inner_of_cell:(Coord.cell -> int) ->
  edges:(int * int) array ->
  required:bool array ->
  Problem.t
(** An instance on the caller's nodes [0 .. num_inner - 1] and [edges],
    plus one node per port: port [i] is node [num_inner + i], linked by the
    unrequired edge [Array.length edges + i] to [inner_of_cell] of its
    cell.  The ports are the terminals, the sources the starts and the
    sinks the ends, in port order. *)

type mapping
(** Decoder between the abstract {!Problem} instance and grid entities. *)

val problem : ?forbidden_valves:int list -> Fpva.t -> Problem.t * mapping
(** The primal instance.  Open channels are uncontrollable, so cells joined
    by them behave as one fluid node; the instance is built on that
    contraction — nodes are channel-connected components of fluid cells
    (plus ports), edges are exactly the valves between distinct components
    (all required) plus the port openings.  A path therefore never
    short-circuits its own valves through a channel.
    [forbidden_valves] removes the given valves from the graph entirely
    (they stay closed in any path generated from the instance) — used by
    control-leakage generation to keep an aggressor valve actuated. *)

val bypassed_valves : mapping -> int list
(** Valves whose two endpoint cells are channel-connected around them: a
    permanent fluid bypass exists, so no pressure test can ever observe
    their stuck-at-0 fault.  Reported as uncovered by {!generate}. *)

val sound : Fpva.t -> t -> bool
(** Single-fault soundness audit of a path's vector: the sink sees pressure
    nominally, and closing any {e single} path valve removes it — i.e. the
    vector really detects a stuck-at-0 fault at each of its valves.  On
    single-source chips the channel contraction makes every generated path
    sound; with several sources a path crossing another source's port cell
    is re-fed mid-route and only a subset of its valves is testable — see
    {!tested_valves}. *)

val tested_valves : Fpva.t -> t -> int list
(** The valves of the path whose stuck-at-0 fault the path's vector
    {e actually} detects: closing the valve (all other states per the
    vector) changes the observation at some port.  Equal to [valve_ids] on
    single-source chips; a strict subset when another source re-feeds the
    path.  Generation absorbs only these, so coverage always implies
    detection. *)

val edge_id_of_mapping : mapping -> Coord.edge -> int option
(** Problem edge id of a grid edge (None if absent from the instance). *)

val of_problem_path : Fpva.t -> mapping -> Problem.path -> t
(** @raise Invalid_argument if the path does not decode to a port-to-port
    cell route. *)

val serpentine_seeds : Fpva.t -> Problem.path list
(** Boustrophedon whole-array paths (row-wise and column-wise, from each
    corner) that are admissible on this layout — the constructive pattern
    with which a full [n x n] array is covered by two paths, as in the
    paper's Fig. 8(a).  Empty when obstacles/ports rule them out. *)

val cover :
  ?engine:Cover.engine ->
  ?seeds:Problem.path list ->
  ?budget:Budget.t ->
  ?stats:Cover.stats ->
  Fpva.t ->
  Problem.t * mapping ->
  pending:bool array ->
  t Cover.outcome
(** [cover t (problem t) ~pending] covers the pending valves with flow
    paths: {!Cover.run} over the instance, each valve worth its edge, each
    path retiring its {!tested_valves}.  [pending] is cleared as valves
    are retired; [uncovered] lists the valves still pending.  [seeds] are
    instance paths tried first. *)

val generate :
  ?engine:Cover.engine ->
  ?budget:Budget.t ->
  ?stats:Cover.stats ->
  Fpva.t ->
  t list * int list
(** [generate t] covers all valves with flow paths ({!cover}), trying the
    {!serpentine_seeds} first.  Returns the paths and the ids of valves
    that could not be covered, the {!bypassed_valves} last (empty for any
    layout whose valves are all reachable — guaranteed after
    [Fpva.validate]).  Engine calls respect [budget]
    (loops stop early, leaving the rest uncovered), fall back to randomized
    search on solver failure, and record telemetry in [stats]. *)

val minimum :
  ?bb_options:Fpva_milp.Branch_bound.options ->
  max_paths:int ->
  Fpva.t ->
  t list option
(** Joint minimum-path-count ILP (paper eqs. (1)–(8)) — exponential; meant
    for small arrays and for cross-checking the incremental engines. *)

val covers_all_valves : Fpva.t -> t list -> bool

val pp : Fpva.t -> Format.formatter -> t -> unit
