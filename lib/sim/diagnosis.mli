(** Fault diagnosis from test responses.

    The paper's test flow only {e detects} faults; for repair, yield
    learning, and adaptive re-test it is natural to ask {e which} valve is
    broken.  This module implements dictionary-based diagnosis, the
    classical technique from IC testing adapted to the FPVA fault model:

    each candidate fault has a {e syndrome} — the per-vector pass/fail
    pattern it produces under the suite.  Comparing the observed syndrome
    against the dictionary yields the candidate faults consistent with the
    observation.  Two faults with equal syndromes are {e indistinguishable}
    by the suite; {!resolution} quantifies how finely a suite separates the
    single-fault universe (a quality metric for test sets beyond plain
    detection). *)

type syndrome = bool array
(** Per-vector: [true] iff the observation differs from golden. *)

type dictionary

val single_faults : Fpva_grid.Fpva.t -> Fault.t list
(** The single stuck-at fault universe: SA0 and SA1 for every valve. *)

val build :
  ?jobs:int ->
  ?checkpoint:Checkpoint.t ->
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  faults:Fault.t list ->
  dictionary
(** Simulate every candidate fault against every vector.  Candidates are
    independent, so [jobs] (default 1) shards them across that many domains
    (each with a private simulator handle); the dictionary is identical for
    every [jobs] value.  The equivalence classes are indexed here, once,
    and each class's syndrome is stored once, in a class-major table with
    the class sizes, so {!diagnose} is one lookup and a {!Sequential}
    session works per class, with no hashing.

    [checkpoint] journals completed candidate shards through the given
    store and replays journaled ones, exactly as in
    {!Campaign.run} — an interrupted build resumed on the same file
    yields a bit-identical dictionary.  Key the store with
    {!checkpoint_key}.
    @raise Invalid_argument if [jobs < 1]. *)

val checkpoint_key :
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  faults:Fault.t list ->
  string
(** The identity of a {!build}: layout render digest, suite-text digest
    and candidate fault list digest. *)

val syndrome_of :
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  faults:Fault.t list ->
  syndrome
(** The syndrome an actual fault list produces (what the tester observes). *)

val diagnose : dictionary -> syndrome -> Fault.t list
(** Candidate faults whose dictionary syndrome equals the observation.
    An all-pass syndrome returns [] (nothing to explain); an observed
    syndrome matching no candidate also returns [] (multi-fault or
    out-of-model behaviour).
    @raise Invalid_argument if the observation's length is not the
    dictionary's vector count. *)

type ranked = {
  fault : Fault.t;
  hamming : int;  (** syndrome bits disagreeing with the observation *)
  log_likelihood : float;  (** log P(observation | fault) under the noise
                               model *)
  confidence : float;  (** posterior over the candidate set (uniform
                           prior): likelihoods normalised to sum to 1 *)
}

val rank :
  ?false_pass:float ->
  ?false_fail:float ->
  ?limit:int ->
  dictionary ->
  syndrome ->
  ranked list
(** Likelihood-ranked diagnosis under a per-vector syndrome-bit noise
    model: a vector predicted to fail is observed passing with probability
    [false_pass], and one predicted to pass is observed failing with
    probability [false_fail] (obtain both from
    [Measurement.vector_false_pass] / [vector_false_fail], or pass the raw
    meter rate as an approximation).  Candidates are ordered by descending
    log-likelihood (ties by ascending Hamming distance); [limit] keeps the
    top entries.

    Zero-likelihood candidates are dropped, so with both rates 0 the
    ranking contains exactly the candidates whose syndrome matches the
    observation bit-for-bit — {!diagnose}'s result on any failing
    observation — each with equal confidence.  (On an all-pass observation
    [diagnose] short-circuits to []; [rank] instead returns the
    undetected-fault class, which is the honest answer under noise.)
    @raise Invalid_argument if a rate is outside [0,1), [limit < 1], or
    the observation's length is not the dictionary's vector count. *)

val top_class : ranked list -> ranked list
(** The maximum-likelihood equivalence class: every candidate whose
    log-likelihood ties the best (within 1e-9). *)

val diagnose_subsuming : dictionary -> syndrome -> Fault.t list
(** Weaker matching for multi-fault observations: candidates whose syndrome
    is a non-empty subset of the observed failures (each such fault alone
    explains part of the observation).
    @raise Invalid_argument if the observation's length is not the
    dictionary's vector count. *)

val equivalence_classes : dictionary -> Fault.t list list
(** Faults grouped by identical syndrome (the suite cannot tell members of
    a class apart).  Undetected faults form the all-pass class.  Classes
    come in order of first appearance in the dictionary, and members in
    dictionary order. *)

val resolution : dictionary -> float
(** Number of distinguishable classes divided by number of faults: 1.0
    means full diagnosability down to the single fault. *)

val distinguishing_vector :
  ?handle:Simulator.handle ->
  Fpva_grid.Fpva.t ->
  Fpva_testgen.Test_vector.t list ->
  Fault.t ->
  Fault.t ->
  Fpva_testgen.Test_vector.t option
(** A vector from the list telling the two faults apart, if any.
    [handle] reuses a prebuilt simulator handle for the layout — without
    it every call recompiles the layout, which is quadratic inside any
    loop over fault pairs. *)

(** Adaptive sequential diagnosis: instead of replaying the whole suite
    and matching the full syndrome after the fact, read one vector at a
    time, each time choosing the unread vector whose outcome carries the
    most expected information about the surviving candidate set — the
    set-level generalization of {!distinguishing_vector} — and update a
    posterior over the dictionary with {!rank}'s per-bit noise
    likelihoods.  At zero noise this isolates the same equivalence class
    as the fixed-suite {!diagnose} in (usually far) fewer reads.

    A session keeps its state per equivalence class, not per fault: the
    classes that read alike on every vector read so far share one
    log-likelihood (an {e agreement group}), so a posterior takes one
    [exp] per group.  The sums behind the vector choice and the
    posterior still add one term per live fault in ascending dictionary
    order, so outcomes are bit-identical to a per-fault session.  A
    session reuses the working arrays of the dictionary's previous one;
    a concurrent session on the same dictionary gets its own.  With
    tracing on, each session adds to the counters
    [diagnosis.sequential_sessions], [diagnosis.sequential_reads],
    [diagnosis.sequential_groups] (groups weighed, summed over its
    posteriors) and [diagnosis.sequential_cells] (live faults times
    unread vectors, summed over its vector choices). *)
module Sequential : sig
  type config = {
    false_pass : float;
        (** probability a predicted-fail read is observed passing
            (see {!rank}) *)
    false_fail : float;
        (** probability a predicted-pass read is observed failing *)
    confidence : float;
        (** stop once the top equivalence class holds at least this
            posterior mass, in (0,1]; 1.0 effectively disables the stop
            under noise (use e.g. 0.95) and is the right choice at zero
            noise, where isolation triggers first *)
    max_reads : int option;
        (** read budget; [None] allows up to one read per vector *)
  }

  val ideal : config
  (** Zero noise, confidence 1.0, no read cap — the configuration whose
      outcome provably matches fixed-suite {!diagnose}. *)

  type stop =
    | Isolated  (** survivors form a single equivalence class *)
    | Confident  (** top-class posterior mass reached [confidence] *)
    | Exhausted
        (** read budget spent, no informative vector left, or no
            candidate at all (an empty dictionary: a vector is read only
            when survivors disagree on it, so reads never eliminate
            every candidate) *)

  type step = {
    vector : int;  (** index into the dictionary's vector array *)
    failed : bool;  (** the observation for that read *)
    survivors : int;  (** candidates still alive after the update *)
  }

  type outcome = {
    steps : step list;  (** in read order *)
    reads : int;
    isolated : Fault.t list;
        (** the maximum-posterior equivalence class, in dictionary
            order; at zero noise on an in-model chip this equals
            {!diagnose} on the full syndrome (empty only for an empty
            dictionary) *)
    class_confidence : float;
        (** posterior mass of [isolated] (1.0 at zero-noise isolation) *)
    stop : stop;
    all_pass : bool;
        (** no read observed a failure — the sequential analogue of
            {!diagnose}'s all-pass short-circuit; callers comparing
            against [diagnose] should treat such outcomes as [] *)
  }

  val run :
    ?config:config ->
    dictionary ->
    read:(int -> Fpva_testgen.Test_vector.t -> bool) ->
    outcome
  (** Drive one adaptive session.  [read i v] applies vector [v] (index
      [i] in the dictionary) to the chip under test once and reports
      whether the observation differs from golden; each vector is read at
      most once.  Wrap majority-vote retesting inside [read] if the
      channel is noisy ({!Retest.apply}).
      @raise Invalid_argument on a rate outside [0,1), [confidence]
      outside (0,1], or [max_reads < 1]. *)

  type replay = {
    fault : Fault.t;
    reads : int;
    agreed : bool;
        (** the session's outcome class matched fixed-suite {!diagnose}
            on this entry's full syndrome ([all_pass] outcomes match []) *)
    replay_all_pass : bool;  (** this entry's syndrome is all-pass *)
  }

  type sweep = {
    sessions : int;
    mean_reads : float;  (** mean reads-to-isolation across sessions *)
    p95_reads : float;
    max_session_reads : int;
    fixed_reads : int;  (** the fixed-suite replay cost: suite size *)
    all_agree : bool;  (** every session agreed with {!diagnose} *)
    replays : replay list;  (** in dictionary order *)
  }

  val sweep : ?config:config -> dictionary -> sweep
  (** Replay every dictionary entry through {!run}, answering reads from
      the entry's own stored syndrome (a noiseless chip exhibiting
      exactly that fault).  With the default {!ideal} config this is the
      mean-reads-to-isolation vs. fixed-suite comparison the bench
      gates on: [all_agree] must hold and [mean_reads] must beat
      [fixed_reads]. *)
end
