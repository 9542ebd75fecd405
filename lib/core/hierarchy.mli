(** Hierarchical flow-path generation (paper Section III-B-4).

    The array is partitioned into subblocks (5x5 in the paper's
    experiments).  Top-level paths over the {e block graph} fix the flow
    direction through each subblock; within every subblock, sub-paths are
    generated from the entry side to the exit side; stitching sub-paths
    along a top-level route yields the final test paths.  Every sub-path
    must appear in some stitched path, and all valves — inside blocks and
    on block borders — must end up covered.

    The top-level routes are a {!Cover.run} over the block graph, whose
    items are the block borders that hold a valve.  Compared to the direct
    model the hierarchy yields more (but shorter, and much cheaper to find)
    paths, reproducing the paper's Fig. 8 contrast.  Valves the stitched
    routes cannot reach (layouts with channels or extreme obstacles) are
    mopped up by the direct model's own cover ({!Flow_path.cover}), so the
    generator never sacrifices coverage for hierarchy.  Bypassed valves
    ({!Flow_path.bypassed_valves}) are retired before any search and
    reported uncovered, as the direct model does.

    The block graph gets its ports from {!Flow_path.with_ports}; each
    in-block instance reads the block's own cells and their arcs from
    {!Fpva_grid.Compiled}, and a stitched route becomes a path through
    {!Flow_path.of_cells}.  At most 64 paths are stitched per run. *)

open Fpva_grid

type options = {
  block_rows : int;  (** subblock height (paper: 5) *)
  block_cols : int;  (** subblock width (paper: 5) *)
  engine : Cover.engine;  (** engine for top-level and in-block searches *)
  segment_budget : int;  (** DFS budget per in-block segment search *)
}

val default_options : options
(** 5x5 blocks, search engine, 30 000 steps per segment. *)

type result = {
  paths : Flow_path.t list;  (** all final paths (stitched + fallback) *)
  top_routes : (int * int) list list;
      (** top-level routes as block-coordinate sequences *)
  stitched : int;  (** paths produced by stitching *)
  fallback : int;  (** paths added by the direct fallback *)
  uncovered : int list;
      (** valve ids no path could reach, the bypassed valves last *)
}

val generate :
  ?options:options -> ?budget:Budget.t -> ?stats:Cover.stats -> Fpva.t -> result
(** All engine access (top-level cover, per-segment searches, direct
    fallback) goes through the resilient {!Cover} front end: [budget] stops
    the rounds/mop-up loops early (leftover valves land in [uncovered]) and
    [stats] accumulates attempt/fallback telemetry across every internal
    engine call. *)

val block_of_cell : options -> Coord.cell -> int * int
(** Block coordinates [(bi, bj)] of a cell under the partition. *)
