(** Cut-set test generation (paper Section III-C).

    A cut-set separates all sources from all sinks; applied as a test vector
    it closes exactly its own valves (everything else open).  Any sink
    pressure then flags a stuck-at-1 valve.  Every valve must appear in at
    least one cut-set.

    Generation solves the complementary path problem on the planar dual
    ({!Fpva_grid.Dual}): a cut is a simple corner-to-corner path whose ends
    touch the chip outline on the two arcs that separate sources from sinks
    — exactly the paper's two boundary-search valve sets.  The anti-masking
    constraint (eq. 9) forbids a cut that could be reproduced by one extra
    valve: if a path visits both corners of a valve's dual segment it must
    cross that valve.

    Covering runs the {!Cover} driver's two passes: {!Cover.greedy} on each
    arc-pair instance, each cut retiring the valves of its irredundant
    core, then {!Cover.targeted} on every leftover valve across all
    instances. *)

open Fpva_grid

type t = {
  valves : Coord.edge list;  (** the closed valves forming the cut *)
  valve_ids : int list;
  corners : Dual.corner list;  (** dual path realising the cut *)
}

type mapping

val problems :
  ?anti_masking:bool -> Fpva.t -> (Problem.t * mapping) list
(** One dual path instance per admissible pair of outline arcs (for the
    standard one-source/one-sink layouts: exactly one instance).  The
    instances differ only in their end arcs: they share one dual graph and
    one mapping.  [anti_masking] (default true) enables eq. (9). *)

val crossed_edge_of_mapping : mapping -> int -> Coord.edge option
(** The primal edge crossed by a dual (problem) edge id; [None] if the id
    is out of range. *)

val of_problem_path : Fpva.t -> mapping -> Problem.path -> t

val minimize : Fpva.t -> drop_first:(int -> bool) -> t -> t
(** Shrink a cut to an irredundant core: greedily drop valves whose removal
    leaves the cut separating, attempting the valves satisfying
    [drop_first] before the others.  In the result {e every} valve is
    essential — commanding it open restores a source-sink connection — so a
    stuck-at-1 fault at any cut valve is guaranteed to flip the vector's
    observation.  (Dual-path cuts can enclose dead pockets next to
    obstacles or transport channels, making some crossed valves redundant;
    redundant valves are unobservable and must not count as covered.) *)

val generate :
  ?engine:Cover.engine ->
  ?anti_masking:bool ->
  ?budget:Budget.t ->
  ?stats:Cover.stats ->
  Fpva.t ->
  t list * int list
(** Cover all valves with irredundant cut-sets; returns cuts and the valve
    ids that are essential in no generated cut (to be handled by
    pierced-path vectors — see {!Test_vector.of_pierced_path}).  Every
    returned cut is verified to separate sources from sinks.  Engine calls
    respect [budget]; leftover valves on early stop are reported uncovered,
    telemetry lands in [stats]. *)

val is_valid : Fpva.t -> t -> bool
(** Does closing the cut's valves disconnect all sinks from all sources? *)

val covers_all_valves : Fpva.t -> t list -> bool

val pp : Format.formatter -> t -> unit
