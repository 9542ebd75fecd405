(** Adaptive retest scheduling for noisy test application.

    With noisy pressure meters a single read of a vector's response is
    unreliable; the fault-tolerance literature (Abdoli, fault-tolerant
    DMFB design flows) treats repeated measurement as first-class.  This
    module implements the tester-side policy, independent of any
    particular simulator or noise model: a vector is read once, confirmed
    with a second read when the budget allows, and {e escalated} to
    further reads only when the first two disagree — so a clean chip pays
    at most two reads per vector while a flaky reading converges to a
    majority verdict over up to [max_reads] applications.

    The [read] callback abstracts "apply the vector once and compare the
    observation against golden" ([true] = discrepancy observed), which
    keeps this module usable from both the noisy simulator
    ([Fpva_sim.Measurement]) and a physical tester driver. *)

type policy = { max_reads : int }
(** Per-vector read budget [k >= 1].  Reads stop early once one side holds
    a strict majority of [k]. *)

val policy : int -> policy
(** @raise Invalid_argument if the budget is < 1. *)

type verdict = {
  failed : bool;  (** majority says the observation differs from golden;
                      ties resolve to [true] (conservative) *)
  reads : int;  (** reads actually performed (adaptive: 1, 2, or up to
                    [max_reads] on disagreement) *)
  fail_votes : int;
  pass_votes : int;
}

val unanimous : verdict -> bool

val apply : policy -> read:(int -> bool) -> verdict
(** Read one vector up to [max_reads] times; [read] receives the 0-based
    attempt index.  With [max_reads = 1] this is exactly one read and the
    verdict is that read. *)

type 'a outcome = {
  item : 'a;
  verdict : verdict;
}

type 'a session = {
  outcomes : 'a outcome list;  (** in input order *)
  total_reads : int;
  escalated : int;  (** items that needed disagreement-triggered reads
                        beyond the confirmation read *)
  flagged : int;  (** items with a failed verdict *)
}

val run : policy -> read:('a -> int -> bool) -> 'a list -> 'a session
(** Apply the policy to every item of a suite, in order. *)

val mean_reads : 'a session -> float
(** Average reads per item (0 on an empty session). *)
