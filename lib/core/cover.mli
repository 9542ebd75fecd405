(** Incremental covering loop and the resilient single-path front end.

    Repeatedly asks a single-path engine for the path covering the most
    still-uncovered required edges, until everything required is covered.
    This is the decomposition the paper applies per subblock; for whole
    arrays it trades the joint minimum model (eq. 7) for scalability while
    keeping the same constraint structure per path.

    All engine access goes through {!find_robust}/{!find_salted}: engine
    output is audited ([Problem.path_ok]), engine exceptions are contained,
    solver truncation triggers an automatic fallback to the randomized
    search engine with retry salts, and an exhausted {!Budget} stops work
    instead of hanging.  {!stats} records what happened so {!Pipeline} can
    report per-stage degradation. *)

type single_path = Problem.t -> weight:float array -> Problem.path option
(** A pluggable single-path engine: best admissible path for the weights,
    or [None].  Used for test harnesses (fault injection — see
    [test/chaos.ml]) and alternative backends. *)

type engine =
  | Search of Path_search.params  (** combinatorial DFS ({!Path_search}) *)
  | Ilp of Fpva_milp.Branch_bound.options  (** exact ILP ({!Path_ilp}) *)
  | Custom of custom
      (** external engine; results are audited and exceptions contained *)

and custom = { cname : string; find : single_path }

val default_engine : engine
(** [Search Path_search.default_params]. *)

val engine_name : engine -> string
(** ["search"], ["ilp"], or the custom engine's name. *)

type outcome = {
  paths : Problem.path list;  (** in generation order *)
  uncovered : int list;
      (** required edges no admissible path could cover within budget
          (empty on success) *)
}

(** Telemetry accumulated by {!find_robust}/{!find_salted}/{!run}; one
    record per pipeline stage feeds the degradation report. *)
type stats = {
  mutable attempts : int;  (** primary engine invocations *)
  mutable failures : int;
      (** attempts where the primary engine produced no usable path
          (timeout/truncation without incumbent, claimed infeasibility,
          exception) *)
  mutable rejected : int;
      (** engine outputs that failed the [Problem.path_ok] audit (garbage
          incumbents) — counted within [failures] handling *)
  mutable fallbacks : int;
      (** paths recovered by the salted search fallback after a primary
          failure *)
  mutable budget_hits : int;
      (** solver calls skipped or cut short because the budget was
          exhausted *)
}

val fresh_stats : unit -> stats

val find_one : engine -> Problem.t -> weight:float array -> Problem.path option
(** One audited engine invocation, no fallback: the result, if any,
    satisfies [Problem.path_ok]; exceptions raised by a [Custom] engine
    (other than asynchronous ones) are contained and reported as [None]. *)

val default_salts : int list
(** The search-engine salts a fallback tries, in order. *)

val find_robust :
  ?budget:Budget.t ->
  ?stats:stats ->
  ?salts:int list ->
  engine ->
  Problem.t ->
  weight:float array ->
  Problem.path option
(** The resilient front end.  Tries the primary engine once (ILP solver
    options clamped to the budget); when it times out, truncates, claims
    infeasibility, crashes, or returns garbage, retries with the randomized
    {!Path_search} engine once per salt in [salts].  A truncated ILP
    incumbent competes with the fallback results on covered weight — the
    best valid path wins.  Returns [None] immediately (recording a budget
    hit) when [budget] is exhausted.

    [salts] defaults to {!default_salts} for [Ilp]/[Custom] engines and to
    [[]] for [Search] — callers of the search engine drive their own salt
    schedules, and keeping the default empty preserves their exact
    behaviour. *)

val find_salted :
  ?budget:Budget.t ->
  ?stats:stats ->
  salt:int ->
  engine ->
  Problem.t ->
  weight:float array ->
  Problem.path option
(** One salted attempt, for callers that loop over their own salt list: a
    [Search] engine runs with its seed offset by [salt] (the historical
    behaviour); [Ilp]/[Custom] engines run {!find_robust} with [[salt]] as
    the only fallback salt. *)

val run :
  ?engine:engine ->
  ?seeds:Problem.path list ->
  ?max_paths:int ->
  ?budget:Budget.t ->
  ?stats:stats ->
  Problem.t ->
  outcome
(** [run problem] covers the required edges.  [seeds] are candidate paths
    tried first (e.g. serpentine constructions); invalid or useless seeds
    are dropped silently.  [max_paths] (default 10 x required count + 8)
    bounds the loop.  Every returned path satisfies [Problem.path_ok].
    When [budget] runs out the loop stops and the still-uncovered required
    edges are reported in [uncovered]. *)
