(** ILP path engine — the paper's formulation (Section III-B).

    Variables and constraints map one-to-one onto the paper's model:

    - [v_e] (binary): path passes through valve/edge [e] — eq. (1)'s valve
      variables;
    - [c_n] (binary): path passes through cell/node [n];
    - degree constraint: for every interior node, [sum of incident v = 2 c]
      (eq. (1)); for terminal nodes (ports / boundary corners) the sum is
      [c] — they are entered only;
    - coverage (eq. (2)): every required edge covered by some path;
    - flow variables [f_e] with [|f_e| <= M v_e] (eq. (3)) and conservation
      [net inflow = c_n] (eq. (4)), which rules out disjoint loops exactly
      as the paper argues (eq. (5));
    - path-usage indicators [p_m] with big-M activation (eq. (6)) and
      objective [min sum p_m] (eq. (7)) in the joint model;
    - anti-masking (eq. (9)) on pair-constrained edges:
      [c_a + c_b - 1 <= v_e].

    Two entry points: {!find} optimises a single path for maximum edge
    weight (used by the incremental covering loop), {!minimum_cover} solves
    the joint minimum-path-count model.  Both treat {e every} (start, end)
    combination of the instance as admissible; callers with arc-pair
    structure (cut-sets) split the instance per arc pair. *)

val single_path_lp :
  ?loop_exclusion:bool -> Problem.t -> weight:float array -> Fpva_milp.Lp.t
(** The single-path model, exposed for inspection/dumping.  Variable order:
    edges [v_0..], then nodes [c_0..], then flows [f_0..].
    [loop_exclusion] (default true) controls the flow constraints (eqs. 3–4)
    — disabling them reproduces the disjoint-loop artefact of Fig. 6(c) and
    exists for the ablation benchmark. *)

val find :
  ?bb_options:Fpva_milp.Branch_bound.options ->
  ?loop_exclusion:bool ->
  Problem.t ->
  weight:float array ->
  Problem.path option
(** Exact maximum-weight single path (ties broken toward fewer edges), or
    [None] when the model is infeasible, the solution does not decode to a
    single simple path (possible only with [loop_exclusion:false]), or the
    branch-and-bound budget ran out without an incumbent. *)

type status =
  | Proven  (** solver proved optimality and the solution decoded *)
  | Truncated
      (** a solver budget ([time_limit]/[max_nodes]) was hit; the returned
          path, if any, is a valid but possibly sub-optimal incumbent *)
  | Infeasible_claimed
      (** the solver reports that no admissible path exists *)
  | Failed
      (** the model was unbounded or an optimal solution failed to decode —
          only reachable through misuse ([loop_exclusion:false]) or a buggy
          solver, but callers must stay sound when it happens *)

val find_status :
  ?bb_options:Fpva_milp.Branch_bound.options ->
  ?loop_exclusion:bool ->
  Problem.t ->
  weight:float array ->
  Problem.path option * status
(** Like {!find} but distinguishing {e why} no (optimal) path was produced,
    so callers can trigger the search-engine fallback chain on truncation or
    doubt a spurious infeasibility claim (see {!Cover.find_robust}). *)

val minimum_cover :
  ?bb_options:Fpva_milp.Branch_bound.options ->
  Problem.t ->
  max_paths:int ->
  Problem.path list option
(** Joint model with [max_paths] path slots: minimise the number of used
    paths subject to full coverage of required edges.  [None] if infeasible
    within [max_paths] slots (the paper then increases [np] and retries) or
    if the solver budget is exhausted with no incumbent. *)
