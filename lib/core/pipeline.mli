(** End-to-end test-set generation — the paper's full flow.

    Runs, in order: flow-path generation (direct or hierarchical), cut-set
    generation, and control-leakage generation, assembling the complete
    vector suite and the per-stage runtimes that populate Table I.

    The pipeline degrades gracefully instead of failing: every engine call
    goes through the resilient {!Cover} front end (audited results, salted
    search fallback on solver failure), a {!Budget} caps total wall clock
    with per-stage shares, and the result carries a {!stage_report} per
    stage saying whether it ran exactly, fell back, or stopped early. *)

open Fpva_grid

type config = {
  engine : Cover.engine;
  hierarchical : bool;  (** use {!Hierarchy} for the flow paths *)
  block_rows : int;  (** subblock height when hierarchical (paper: 5) *)
  block_cols : int;
  anti_masking : bool;  (** enable eq. (9) in cut generation *)
  include_leakage : bool;
  leak_routing : Control.routing;
      (** control-layer pair model for leakage vectors (default
          [Fluid_adjacency]) *)
}

val default_config : config
(** Search engine, hierarchical with 5x5 blocks, anti-masking and leakage
    on.  The direct model always tries the serpentine constructions
    ({!Flow_path.serpentine_seeds}) first. *)

val direct_config : config
(** Like {!default_config} but non-hierarchical (the paper's "direct
    model"). *)

type stage_status =
  | Exact  (** stage completed with no fallback and no budget pressure *)
  | Fell_back_to_search
      (** the primary engine failed at least once and the salted randomized
          search recovered a path; output is complete but possibly not the
          primary engine's optimum *)
  | Partial of string
      (** the stage stopped early (budget exhausted) or the engine failed
          with items still uncovered; the reason string says which *)

type stage_report = {
  stage : string;  (** ["flow"], ["cut"], or ["leak"] *)
  status : stage_status;
  seconds : float;  (** wall clock actually spent in the stage *)
  allotted : float;  (** budget share granted ([infinity] = unlimited) *)
  fallbacks : int;  (** paths recovered by the search fallback *)
  failures : int;  (** primary-engine attempts yielding no usable path *)
}

type t = {
  fpva : Fpva.t;
  flow : Flow_path.t list;
  cuts : Cut_set.t list;
  pierced : (Flow_path.t * int) list;
      (** targeted stuck-at-1 probes for valves essential in no cut *)
  leak : Flow_path.t list;
  vectors : Test_vector.t list;
      (** flow, cut, pierced, then leak vectors *)
  np : int;  (** flow-path vector count — Table I column [np] *)
  ncut : int;
      (** stuck-at-1 vector count (cut-sets + pierced probes) — Table I
          column [nc] *)
  nl : int;  (** leakage vector count — Table I column [nl] *)
  total : int;  (** Table I column [N] *)
  tp : float;  (** seconds — Table I column [tp] *)
  tc : float;
  tl : float;
  total_time : float;
  uncovered_flow : int list;  (** valve ids (empty on sane layouts) *)
  uncovered_cut : int list;
  untestable_pairs : (int * int) list;
      (** leakage pairs no pressure test can exercise (e.g. the two valves
          of a corner cell) *)
  degradation : stage_report list;
      (** one report per stage, in run order (flow, cut, leak) *)
}

val run : ?config:config -> ?budget:Budget.t -> Fpva.t -> (t, string) result
(** Generate the full suite.  [Error msg] iff [Fpva.validate] rejects the
    layout — generation itself never raises.  [budget] (default
    {!Budget.unlimited}) caps total wall clock: the flow stage gets half,
    cut-sets 60% of the remainder, leakage the rest, and unused time rolls
    forward.  On exhaustion the stages stop early, report [Partial] status,
    and the suite stays well-formed — whatever was generated is returned
    with accurate [uncovered_flow]/[uncovered_cut]/[untestable_pairs]. *)

val run_exn : ?config:config -> ?budget:Budget.t -> Fpva.t -> t
(** Like {!run}.
    @raise Invalid_argument when [Fpva.validate] fails. *)

val degraded : t -> bool
(** Some stage's status differs from [Exact]. *)

val suite_ok : t -> bool
(** All valves covered by flow paths and by cuts, all vectors well-formed,
    all cuts valid. *)
