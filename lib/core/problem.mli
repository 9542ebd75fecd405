(** Abstract path-covering problem.

    Flow-path generation (primal grid graph: cells and ports) and cut-set
    generation (dual corner graph) are both instances of the same problem:

    {e find simple paths from a start node to an end node that cover all
    required edges, as few paths as possible.}

    This module is the shared instance description read by the two
    engines, {!Path_search} (combinatorial) and {!Path_ilp} (the paper's ILP
    formulation solved by {!Fpva_milp.Branch_bound}). *)

type t = private {
  num_nodes : int;
  num_edges : int;
  adj_off : int array;
      (** CSR adjacency, the layout of {!Fpva_grid.Compiled}: node [n]'s
          arcs are [adj_off.(n) .. adj_off.(n + 1) - 1] ([num_nodes + 1]
          entries, [adj_off.(0) = 0]), listed by descending edge id *)
  adj_node : int array;  (** the neighbour reached by each arc *)
  adj_edge : int array;  (** the edge id crossed by each arc; symmetric *)
  edge_ends : (int * int) array;  (** canonical endpoints of each edge *)
  required : bool array;  (** edges that must be covered across all paths *)
  pair_constrained : bool array;
      (** edges subject to the paper's anti-masking rule (eq. 9): if a path
          visits both endpoints of such an edge, it must traverse it *)
  terminal : bool array;
      (** nodes that may appear only as the first or last node of a path
          (ports in the primal problem, boundary corners in the dual) *)
  starts : int array;
  ends : int array;
}

val build :
  num_nodes:int ->
  edges:(int * int) array ->
  required:bool array ->
  ?pair_constrained:bool array ->
  ?terminal:bool array ->
  starts:int array ->
  ends:int array ->
  unit ->
  t
(** Build an instance; array lengths must agree ([edges], [required] and
    [pair_constrained] indexed by edge; [terminal] by node).
    @raise Invalid_argument on inconsistent sizes or out-of-range ids. *)

val num_required : t -> int

val dead_end : t -> int -> bool
(** [dead_end t e] — is edge [e] on a dead end?  Nodes that are neither
    terminal, start nor end are pruned while they have at most one edge
    left; [e] is on a dead end when an end of it is pruned.  An interior
    node of a path needs two edges and the other nodes are never pruned,
    so no admissible path uses such an edge: an engine asked to cover it
    can only fail.  O(nodes + edges). *)

type path = {
  nodes : int list;  (** visited nodes, start first *)
  edges : int list;  (** traversed edges, in step order; length = nodes-1 *)
}

val path_ok : t -> path -> (unit, string) result
(** Full audit of a candidate path: simplicity, adjacency of consecutive
    nodes, start/end membership, terminal discipline, and the anti-masking
    rule on [pair_constrained] edges. *)

val covered : t -> path list -> bool array
(** Per-edge: is it covered by some path? *)

val all_required_covered : t -> path list -> bool

val uncovered_required : t -> path list -> int list
