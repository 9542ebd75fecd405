(** Planar-dual view of the FPVA used to generate cut-sets.

    A cut-set that separates sources from sinks corresponds to a path in the
    {e corner graph}: corners are the grid vertices [(i, j)] with
    [0 <= i <= rows], [0 <= j <= cols]; stepping between two adjacent
    corners crosses exactly one internal edge of the primal grid, and the
    set of crossed [Valve] edges is the cut-set.  This realises the paper's
    observation that "an end of a cut-set must touch an edge of the chip":
    valid cut paths run from one boundary corner to another, splitting the
    outline into an arc containing all sources and an arc containing all
    sinks (the two valve sets found by the paper's boundary search).

    Crossing rules: a [Valve] edge may be crossed (it joins the cut-set);
    a [Wall] is crossed for free (already sealed); an [Open_channel] can
    never be crossed — no valve exists there to stop the fluid.

    The outline's port openings ({!outline_ports}) are worked out here
    only; cut generation reads its end arcs from them. *)

type corner = { ci : int; cj : int }

val corner : int -> int -> corner

val compare_corner : corner -> corner -> int

val crossed_edge : Fpva.t -> corner -> corner -> Coord.edge option
(** The primal internal edge crossed by the dual segment between two
    adjacent corners; [None] when the segment lies on the chip outline.
    @raise Invalid_argument if the corners are not adjacent. *)

val steps :
  Fpva.t -> corner -> (corner * Coord.edge) list
(** Interior dual steps from a corner: adjacent corners whose connecting
    segment crosses a crossable internal edge ([Valve] or [Wall] — never
    [Open_channel]), with that edge.  Steps along the chip outline are not
    returned: a boundary corner may only start or finish a cut path. *)

val boundary_corners : Fpva.t -> corner list
(** Outline corners in clockwise order starting at [(0, 0)]. *)

val outline_ports : Fpva.t -> corner array * Fpva.port_kind option array
(** The outline as a ring, and what pierces it: [(ring, seg)] with [ring]
    the {!boundary_corners} and [seg.(k)] the kind of the port whose
    opening is the segment from [ring.(k)] to [ring.(k + 1)] (wrapping),
    [None] for a sealed segment.  The one owner of which segment a port
    pierces: {!valid_endpoints} and [Cut_set]'s outline arcs read it. *)

val valid_endpoints : Fpva.t -> corner -> corner -> bool
(** [valid_endpoints t a b] — do boundary corners [a] and [b] split the
    outline so that all sources fall on one side and all sinks on the
    other?  (Necessary for a dual path [a..b] to be a source/sink cut.) *)

val cut_of_corner_path : Fpva.t -> corner list -> Coord.edge list
(** The [Valve] edges crossed by a corner path (walls are skipped).
    @raise Invalid_argument if consecutive corners are not adjacent or a
    segment crosses an [Open_channel]. *)

val is_cut : Fpva.t -> Coord.edge list -> bool
(** [is_cut t closed] — does closing exactly [closed] (plus the permanent
    walls) disconnect every sink from every source?  Verified by BFS on the
    primal graph, so it is meaningful for arbitrary valve sets, not only
    those produced from corner paths. *)
