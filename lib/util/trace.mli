(** Structured tracing and metrics — zero-dependency observability.

    The hot paths of this library (simplex pivots, branch-and-bound nodes,
    campaign trials, pool workers) run millions of iterations; regressions
    there are invisible without counters, and "where did the wall clock go"
    is unanswerable without spans.  This module provides both, with a hard
    contract: {e when tracing is disabled — the default — every operation
    below is a no-op that allocates nothing}, so instrumented hot loops pay
    one predictable-branch load and results stay bit-identical whether or
    not a trace is being taken (tracing never touches any RNG stream).

    {2 Domain-safety contract}

    [incr]/[add]/[set_gauge] and event emission may be called from any
    domain: counters and gauges are atomics, and sink writes are serialised
    by an internal mutex.  [enable]/[disable]/[reset] must be called from
    the main domain while no {!Pool} workers are running — workers spawned
    after [enable] observe the enabled state through the [Domain.spawn]
    happens-before edge. *)

(** {1 Events and sinks} *)

type tags = (string * string) list

type event = {
  ts : float;  (** span start, in seconds since {!enable} *)
  name : string;
  dur : float;  (** span duration in seconds; [0.] for instant events *)
  tags : tags;
}

(** A sink consumes events as they are emitted.  [emit] runs under the
    internal serialisation mutex (implementations need no further locking);
    [flush] runs once from {!disable}. *)
type sink = { emit : event -> unit; flush : unit -> unit }

val null_sink : sink
(** Swallows everything.  Tracing enabled with only this sink still
    accumulates counters and gauges — the cheapest metrics-only mode. *)

val json_sink : out_channel -> sink
(** Line-delimited JSON: one [{"ts":…,"name":…,"dur":…,"tags":{…}}] object
    per event.  String values are JSON-escaped; the channel is flushed on
    [flush] but not closed (the caller owns it). *)

val collector : unit -> sink * (unit -> event list)
(** An in-memory sink plus a getter returning the events collected so far
    in emission order — the test-friendly sink. *)

val summary_sink : (string -> unit) -> sink
(** Aggregates spans per name (count, total, mean, max) and renders a
    pretty {!Table} through the given print function on [flush] — the
    console-summary sink. *)

(** {1 Lifecycle} *)

val enable : ?sinks:sink list -> unit -> unit
(** Start tracing: subsequent counter bumps take effect and events flow to
    [sinks] (default: none, i.e. metrics only).  Re-enabling replaces the
    sinks and restarts the span clock; it does {e not} reset metrics — use
    {!reset} for a clean slate. *)

val disable : unit -> unit
(** Stop tracing and flush every sink.  Counter values survive for
    inspection via {!counters}/{!metrics_table}. *)

val flush : unit -> unit
(** Flush every sink {e without} disabling — the shutdown-path hook.  A
    long-lived daemon calls this from its SIGTERM/SIGINT drain (see
    {!Fpva_serve.Server}) so a killed process never leaves a truncated
    trace file; events keep flowing afterwards.  Serialised with event
    emission, and a no-op with no sinks installed. *)

val is_enabled : unit -> bool
(** One atomic load — cheap enough to guard a [Timer.now] call with. *)

val reset : unit -> unit
(** Zero every registered counter and gauge. *)

(** {1 Counters and gauges} *)

type counter

val counter : string -> counter
(** Register (or fetch) the process-global counter [name].  Registration
    takes a lock — create counters at module-initialisation time, not in
    hot loops. *)

val incr : counter -> unit
(** Atomic increment; a no-op (no allocation) while tracing is disabled. *)

val add : counter -> int -> unit

val count : counter -> int

type gauge

val gauge : string -> gauge
(** Register (or fetch) the process-global gauge [name] (a float cell). *)

val set_gauge : gauge -> float -> unit
(** Record the latest value; a no-op while tracing is disabled. *)

(** {1 Span and event emission}

    All three are no-ops (no clock read, no allocation) while disabled. *)

val instant : ?tags:tags -> string -> unit
(** A point event ([dur = 0.]). *)

val emit_span : ?tags:tags -> string -> dur:float -> unit
(** A span that the caller timed itself (e.g. a stage duration already
    measured for reporting); [ts] is backdated by [dur]. *)

val with_span : ?tags:tags -> string -> (unit -> 'a) -> 'a
(** Time [f] and emit a span on the way out (also on exception). *)

(** {1 Metrics reporting} *)

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val gauges : unit -> (string * float) list

val metrics_nonempty : unit -> bool
(** Some counter or gauge is non-zero. *)

val metrics_summary : unit -> string
(** Non-zero counters and gauges as a two-column table under a heading,
    or a placeholder line when nothing was recorded. *)
