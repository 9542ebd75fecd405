(** The [fpva client] side of the wire: one request, retried to success.

    {!call} dials the server, sends one {!Protocol.envelope} frame, and
    reads one response frame — then classifies the outcome:

    - an [ok] frame, or an error frame the server marked non-retryable
      ([bad_request], [internal], …), is a {e definitive answer} and is
      returned as [Ok json] immediately (the caller inspects
      {!Protocol.response_ok});
    - a {e retryable} error frame ([overloaded], [shutting_down]) or a
      transport failure (connect refused, timeout, connection reset,
      truncated response) triggers another attempt after an exponential
      backoff with jitter, up to [retries] extra attempts.

    Retries are only safe because of idempotency keys: when the envelope
    carries none and [retries > 0], {!call} stamps a fresh one
    ({!fresh_key}) before the first attempt, so a request whose response
    was lost in transit is {e replayed} from the server's response cache
    rather than recomputed — the retried client sees byte-identical
    results.  Jitter draws from a deterministic {!Fpva_util.Rng} stream
    seeded per call ([jitter_seed]), keeping tests reproducible. *)

type config = {
  addr : Protocol.addr;
  retries : int;  (** extra attempts after the first (default 4) *)
  retry_budget : float option;
      (** wall-clock cap in seconds across {e all} attempts of one
          {!call} (default [None] = unlimited).  Per-attempt connect and
          read timeouts are clamped to what remains, and a backoff that
          would overrun the budget gives up instead — so a dead or
          never-answering server costs at most roughly this long.  The
          attempt count cap ([retries]) still applies independently. *)
  connect_timeout : float;  (** seconds to establish the connection *)
  read_timeout : float;  (** seconds to wait for the complete response
                             frame once the request is written *)
  base_backoff : float;  (** first retry delay, seconds (default 0.05) *)
  max_backoff : float;  (** backoff growth cap (default 2.0) *)
  jitter_seed : int;  (** seeds the backoff-jitter RNG stream *)
  log : string -> unit;  (** per-attempt diagnostics (default: silent) *)
}

val default_config : Protocol.addr -> config
(** 4 retries, no retry budget, 5 s connect, 120 s read, 50 ms base
    backoff capped at 2 s, jitter seed 0, no logging. *)

val fresh_key : unit -> string
(** A process-unique idempotency key (pid + monotonic counter + clock). *)

val call : config -> Protocol.envelope -> (Json.t, string) result
(** Run the request to a definitive answer.  [Ok json] is the parsed
    response frame (which may still be an application-level error frame —
    check {!Protocol.response_ok}); [Error msg] means every attempt failed
    on transport or retryable errors, and [msg] describes the last
    failure. *)
