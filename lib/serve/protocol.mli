(** Wire protocol of the [fpva serve] daemon.

    One frame = one line of JSON (LF-terminated) in either direction; see
    DESIGN.md §4 for the full grammar.  Requests carry an operation plus a
    common envelope (request id echoed back, an optional deadline, an
    optional idempotency key); responses are either
    [{"id":…,"ok":true,"result":…}] or
    [{"id":…,"ok":false,"error":{"code":…,"message":…,"retryable":…}}].

    This module is pure data (parse/encode only) so both the server and
    the client — and the chaos tests — share one definition of every
    frame. *)

type addr =
  | Unix_sock of string  (** path of a unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val addr_to_string : addr -> string

(** {1 Errors} *)

type error_code =
  | Bad_request  (** malformed JSON, unknown op, invalid field, bad layout *)
  | Frame_too_large  (** request line exceeded the server's frame cap *)
  | Overloaded  (** request queue full — load was shed; retryable *)
  | Shutting_down  (** server draining; retryable against a restarted one *)
  | Internal  (** the request handler raised; the daemon itself survives *)

val code_name : error_code -> string

val retryable : error_code -> bool
(** [Overloaded] and [Shutting_down] are worth retrying with backoff;
    the others are deterministic failures. *)

(** {1 Requests} *)

type gen_options = {
  direct : bool;
  block : int;
  no_leakage : bool;
}

val default_gen_options : gen_options

type campaign_options = {
  trials : int;
  seed : int;
  max_faults : int;
  classes : Fpva_sim.Fault.fault_class list;
  jobs : int;
}

val default_campaign_options : campaign_options

type request =
  | Ping
  | Stats  (** server counters: cache occupancy/hits, queue, inflight *)
  | Crash  (** test-only: handler raises (rejected unless the server was
               started with chaos ops enabled) *)
  | Generate of { layout : string; gen : gen_options }
  | Campaign of {
      layout : string;
      gen : gen_options;
      campaign : campaign_options;
    }

type envelope = {
  id : string option;  (** echoed verbatim in the response *)
  deadline_ms : int option;
      (** per-request wall-clock budget threaded into {!Fpva_testgen.Budget} *)
  idempotency_key : string option;
      (** retried requests carrying the same key replay the cached
          response byte-for-byte instead of recomputing *)
  request : request;
}

val request_of_json : Json.t -> (envelope, string) result
(** Validate one request frame.  [Error] messages are safe to echo to the
    client (no internal state). *)

val request_to_json : envelope -> Json.t
(** Client-side encoding; [request_of_json (request_to_json e)] = [Ok e]. *)

(** {1 Responses} *)

val ok_frame : id:string option -> Json.t -> string
(** A complete success frame, newline {e not} included. *)

val error_frame : id:string option -> error_code -> string -> string

val response_ok : Json.t -> bool

val response_error : Json.t -> (error_code * string) option
(** [(code, message)] of an error response; [Bad_request] when the error
    object is itself malformed. *)

val response_result : Json.t -> Json.t option

(** {1 Result payload encoders} *)

val generate_result_json :
  layout_hash:string ->
  suite_text:string ->
  Fpva_testgen.Pipeline.t ->
  Json.t
(** Suite counts, per-stage degradation reports, and the full suite in
    {!Fpva_testgen.Suite_io} text form (so the client can verify rows are
    bit-identical to a cold CLI run). *)

val campaign_result_json :
  layout_hash:string -> Fpva_sim.Campaign.result -> Json.t
(** Rows plus [truncated] fault counts (budget exhaustion) plus a
    [rendered] field: the exact [faults=…] lines {!Fpva_sim.Campaign.pp_result}
    prints, for byte-comparison against CLI output. *)

val rendered_rows : Fpva_sim.Campaign.result -> string
(** The [faults=…] lines alone (no wall-clock line — that can never be
    reproducible). *)
