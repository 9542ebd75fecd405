(** The covering driver and the resilient single-path front end.

    Every generation stage covers a set of items one path at a time: flow
    paths cover valves (stuck-at-0), cut-sets cover valves (stuck-at-1),
    and the hierarchy's top level covers block borders.  They share one
    loop.  {!greedy} repeatedly asks a single-path engine for the path
    worth the most still-pending weight and stops after three gainless
    paths in a row; {!targeted} then points the engine at one leftover item
    at a time.  {!run} is the residual-set cover built from the two, for
    callers whose items map to single problem edges.  This is the
    decomposition the paper applies per subblock; for whole arrays it
    trades the joint minimum model (eq. 7) for scalability while keeping
    the same constraint structure per path.

    All engine access goes through {!find_robust}: engine
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

type 'a outcome = {
  paths : 'a list;  (** decoded paths, in generation order *)
  uncovered : int list;
      (** items no admissible path could retire within budget, ascending
          (empty on success) *)
}

(** Telemetry accumulated by {!find_robust}; one record per pipeline stage
    feeds the degradation report. *)
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
(** The resilient front end.  Every path it returns satisfies
    [Problem.path_ok], and exceptions raised by a [Custom] engine (other
    than asynchronous ones) are contained as failed attempts.  Tries the
    primary engine once (ILP solver options clamped to the budget); when it
    times out, truncates, claims infeasibility, crashes, or returns
    garbage, retries with the randomized {!Path_search} engine once per
    salt in [salts].  A truncated ILP
    incumbent competes with the fallback results on covered weight — the
    best valid path wins.  Returns [None] immediately (recording a budget
    hit) when [budget] is exhausted.

    [salts] defaults to {!default_salts} for [Ilp]/[Custom] engines and to
    [[]] for [Search] — callers of the search engine drive their own salt
    schedules, and keeping the default empty preserves their exact
    behaviour. *)

val greedy :
  ?budget:Budget.t ->
  ?stats:stats ->
  engine ->
  Problem.t ->
  pending:(unit -> bool) ->
  weight:(unit -> float array) ->
  absorb:(Problem.path -> bool) ->
  unit
(** [greedy engine problem ~pending ~weight ~absorb] asks the engine for
    the best path under [weight ()] and hands it to [absorb], which keeps
    it and answers whether it gained anything.  Each call is salted: a
    [Search] engine runs with its seed offset by the salt, and an
    [Ilp]/[Custom] engine runs {!find_robust} with the salt as its only
    fallback salt.  The salt starts at 0, stays after a path that gains and
    rises by 1 after a gainless one.  The loop stops after three gainless
    paths in a row, when the engine finds no path, when [pending ()] is
    false, or when [budget] is exhausted. *)

val targeted :
  ?budget:Budget.t ->
  ?stats:stats ->
  engine ->
  accept:(Problem.path -> 'a option) ->
  (Problem.t * float array * int) list ->
  'a option
(** [targeted engine ~accept attempts] tries one leftover item's
    [(instance, weight, salt)] attempts in order, salted as in {!greedy},
    and returns the first path [accept] takes, as [accept] mapped it.
    Attempts stop early once [budget] is exhausted. *)

val run :
  ?budget:Budget.t ->
  ?stats:stats ->
  ?seeds:Problem.path list ->
  engine ->
  Problem.t ->
  pending:bool array ->
  edge_of:(int -> int option) ->
  decode:(Problem.path -> 'a) ->
  retires:('a -> int list) ->
  'a outcome
(** The residual-set cover.  Items are the indices of [pending] that hold
    [true]; item [i] is worth the problem edge [edge_of i] (an item with no
    edge cannot be aimed at, only retired by chance).  A path is kept when
    its decoding retires some pending item ([retires]), and then clears
    all of them in [pending].  [seeds] are tried first; invalid or useless
    seeds are dropped.  Then {!greedy} runs with unit weight on every
    pending item's edge, and {!targeted} gives each leftover item four
    tries, salted by the item, with weight 1000 on its edge alone.  Items
    still pending at the end are reported in [uncovered]. *)
