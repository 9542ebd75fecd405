(** Coordinates on an FPVA.

    The array is a [rows] x [cols] grid of {e fluid cells}.  Row 0 is the
    north (top) edge; column 0 is the west (left) edge.  Valves occupy the
    positions {e between} two adjacent cells, so every internal edge of the
    grid graph is a (potential) valve site — matching the paper, whose valve
    counts for an n x n array equal the internal-edge count 2n(n-1) minus
    the sites removed by channels and obstacles. *)

type cell = { row : int; col : int }

type dir = North | South | East | West

(** An internal edge, canonically named after its north-west cell: [E c] lies
    between [c] and its east neighbour, [S c] between [c] and its south
    neighbour. *)
type edge = E of cell | S of cell

val cell : int -> int -> cell
(** [cell row col]. *)

val move : cell -> dir -> cell
(** Neighbouring cell in a direction (may fall outside the grid). *)

val opposite : dir -> dir

val all_dirs : dir list

val edge_between : cell -> cell -> edge
(** Canonical edge joining two orthogonally adjacent cells.
    @raise Invalid_argument if the cells are not adjacent. *)

val edge_endpoints : edge -> cell * cell
(** The two cells an edge joins, in canonical order. *)

val edge_towards : cell -> dir -> edge
(** The edge leaving [c] in direction [d] (its far cell may be outside). *)

val compare_cell : cell -> cell -> int

val pp_cell : Format.formatter -> cell -> unit

val pp_edge : Format.formatter -> edge -> unit

val cell_to_string : cell -> string
