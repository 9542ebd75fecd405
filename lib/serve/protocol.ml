module Pipeline = Fpva_testgen.Pipeline
module Campaign = Fpva_sim.Campaign

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ---------- errors ---------- *)

type error_code =
  | Bad_request
  | Frame_too_large
  | Overloaded
  | Shutting_down
  | Internal

let code_name = function
  | Bad_request -> "bad_request"
  | Frame_too_large -> "frame_too_large"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let code_of_name = function
  | "bad_request" -> Some Bad_request
  | "frame_too_large" -> Some Frame_too_large
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

let retryable = function
  | Overloaded | Shutting_down -> true
  | Bad_request | Frame_too_large | Internal -> false

(* ---------- requests ---------- *)

type gen_options = { direct : bool; block : int; no_leakage : bool }

let default_gen_options = { direct = false; block = 5; no_leakage = false }

type campaign_options = {
  trials : int;
  seed : int;
  max_faults : int;
  classes : Fpva_sim.Fault.fault_class list;
  jobs : int;
}

let default_campaign_options =
  { trials = 1000; seed = 42; max_faults = 3;
    classes = [ `Stuck_at_0; `Stuck_at_1 ]; jobs = 1 }

type request =
  | Ping
  | Stats
  | Crash
  | Generate of { layout : string; gen : gen_options }
  | Campaign of {
      layout : string;
      gen : gen_options;
      campaign : campaign_options;
    }

type envelope = {
  id : string option;
  deadline_ms : int option;
  idempotency_key : string option;
  request : request;
}

let ( let* ) = Result.bind

(* Optional typed field: absent is fine, present-but-wrong-type is a
   protocol error (silently ignoring a mistyped field would make client
   bugs invisible). *)
let opt_field json key getter type_name =
  match Json.member key json with
  | None -> Ok None
  | Some _ -> (
    match getter key json with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "field %S must be %s" key type_name))

let opt_int json key = opt_field json key Json.get_int "an integer"

let opt_string json key = opt_field json key Json.get_string "a string"

let opt_bool json key = opt_field json key Json.get_bool "a boolean"

let with_default d = function Some v -> v | None -> d

let gen_options_of_json json =
  let* direct = opt_bool json "direct" in
  let* block = opt_int json "block" in
  let* no_leakage = opt_bool json "no_leakage" in
  let d = default_gen_options in
  let block = with_default d.block block in
  if block < 1 then Error "field \"block\" must be >= 1"
  else
    Ok
      { direct = with_default d.direct direct;
        block;
        no_leakage = with_default d.no_leakage no_leakage }

let classes_of_json json =
  match Json.member "classes" json with
  | None -> Ok default_campaign_options.classes
  | Some (Json.List xs) ->
    List.fold_left
      (fun acc x ->
        let* cs = acc in
        match x with
        | Json.String name -> (
          match Fpva_sim.Fault.class_of_name name with
          | Some c -> Ok (cs @ [ c ])
          | None ->
            Error
              (Printf.sprintf "unknown fault class %S (want sa0|sa1|leak)"
                 name))
        | _ -> Error "field \"classes\" must be a list of strings")
      (Ok []) xs
    |> fun r ->
    let* cs = r in
    if cs = [] then Error "field \"classes\" must be non-empty" else Ok cs
  | Some _ -> Error "field \"classes\" must be a list of strings"

let campaign_options_of_json json =
  let d = default_campaign_options in
  let* trials = opt_int json "trials" in
  let* seed = opt_int json "seed" in
  let* max_faults = opt_int json "max_faults" in
  let* jobs = opt_int json "jobs" in
  let* classes = classes_of_json json in
  let trials = with_default d.trials trials in
  let max_faults = with_default d.max_faults max_faults in
  let jobs = with_default d.jobs jobs in
  if trials < 1 then Error "field \"trials\" must be >= 1"
  else if max_faults < 1 then Error "field \"max_faults\" must be >= 1"
  else if jobs < 1 then Error "field \"jobs\" must be >= 1"
  else
    Ok { trials; seed = with_default d.seed seed; max_faults; classes; jobs }

let required_layout json =
  match Json.get_string "layout" json with
  | Some l when String.trim l <> "" -> Ok l
  | Some _ -> Error "field \"layout\" must be a non-empty string"
  | None -> Error "missing required string field \"layout\""

let request_of_json json =
  match json with
  | Json.Obj _ ->
    let* id = opt_string json "id" in
    let* deadline_ms = opt_int json "deadline_ms" in
    let* deadline_ms =
      match deadline_ms with
      | Some ms when ms < 0 -> Error "field \"deadline_ms\" must be >= 0"
      | other -> Ok other
    in
    let* idempotency_key = opt_string json "idempotency_key" in
    let* request =
      match Json.get_string "op" json with
      | None -> Error "missing required string field \"op\""
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "crash" -> Ok Crash
      | Some "generate" ->
        let* layout = required_layout json in
        let* gen = gen_options_of_json json in
        Ok (Generate { layout; gen })
      | Some "campaign" ->
        let* layout = required_layout json in
        let* gen = gen_options_of_json json in
        let* campaign = campaign_options_of_json json in
        Ok (Campaign { layout; gen; campaign })
      | Some other ->
        Error
          (Printf.sprintf
             "unknown op %S (want ping|stats|generate|campaign)" other)
    in
    Ok { id; deadline_ms; idempotency_key; request }
  | _ -> Error "request frame must be a JSON object"

let request_to_json { id; deadline_ms; idempotency_key; request } =
  let envelope =
    List.concat
      [ (match id with Some v -> [ ("id", Json.String v) ] | None -> []);
        (match deadline_ms with
        | Some v -> [ ("deadline_ms", Json.Int v) ]
        | None -> []);
        (match idempotency_key with
        | Some v -> [ ("idempotency_key", Json.String v) ]
        | None -> []) ]
  in
  let op_fields =
    match request with
    | Ping -> [ ("op", Json.String "ping") ]
    | Stats -> [ ("op", Json.String "stats") ]
    | Crash -> [ ("op", Json.String "crash") ]
    | Generate { layout; gen } ->
      [ ("op", Json.String "generate");
        ("layout", Json.String layout);
        ("direct", Json.Bool gen.direct);
        ("block", Json.Int gen.block);
        ("no_leakage", Json.Bool gen.no_leakage) ]
    | Campaign { layout; gen; campaign } ->
      [ ("op", Json.String "campaign");
        ("layout", Json.String layout);
        ("direct", Json.Bool gen.direct);
        ("block", Json.Int gen.block);
        ("no_leakage", Json.Bool gen.no_leakage);
        ("trials", Json.Int campaign.trials);
        ("seed", Json.Int campaign.seed);
        ("max_faults", Json.Int campaign.max_faults);
        ("classes",
         Json.List
           (List.map
              (fun c -> Json.String (Fpva_sim.Fault.class_name c))
              campaign.classes));
        ("jobs", Json.Int campaign.jobs) ]
  in
  Json.Obj (envelope @ op_fields)

(* ---------- responses ---------- *)

let id_field = function
  | Some id -> [ ("id", Json.String id) ]
  | None -> []

let ok_frame ~id result =
  Json.to_string (Json.Obj (id_field id @ [ ("ok", Json.Bool true); ("result", result) ]))

let error_frame ~id code message =
  Json.to_string
    (Json.Obj
       (id_field id
       @ [ ("ok", Json.Bool false);
           ( "error",
             Json.Obj
               [ ("code", Json.String (code_name code));
                 ("message", Json.String message);
                 ("retryable", Json.Bool (retryable code)) ] ) ]))

let response_ok json = Json.get_bool "ok" json = Some true

let response_error json =
  match Json.member "error" json with
  | Some err ->
    let code =
      match Json.get_string "code" err with
      | Some name -> with_default Bad_request (code_of_name name)
      | None -> Bad_request
    in
    let message = with_default "" (Json.get_string "message" err) in
    Some (code, message)
  | None -> None

let response_result json = Json.member "result" json

(* ---------- result payloads ---------- *)

let stage_status_json (r : Pipeline.stage_report) =
  let status, reason =
    match r.Pipeline.status with
    | Pipeline.Exact -> ("exact", None)
    | Pipeline.Fell_back_to_search -> ("fallback", None)
    | Pipeline.Partial why -> ("partial", Some why)
  in
  Json.Obj
    ([ ("stage", Json.String r.Pipeline.stage);
       ("status", Json.String status);
       ("seconds", Json.Float r.Pipeline.seconds);
       ("fallbacks", Json.Int r.Pipeline.fallbacks);
       ("failures", Json.Int r.Pipeline.failures) ]
    @ match reason with
      | Some why -> [ ("reason", Json.String why) ]
      | None -> [])

let generate_result_json ~layout_hash ~suite_text (r : Pipeline.t) =
  Json.Obj
    [ ("layout_hash", Json.String layout_hash);
      ("np", Json.Int r.Pipeline.np);
      ("ncut", Json.Int r.Pipeline.ncut);
      ("nl", Json.Int r.Pipeline.nl);
      ("total", Json.Int r.Pipeline.total);
      ("degraded", Json.Bool (Pipeline.degraded r));
      ("suite_ok", Json.Bool (Pipeline.suite_ok r));
      ("stages", Json.List (List.map stage_status_json r.Pipeline.degradation));
      ("suite", Json.String suite_text) ]

let row_json (row : Campaign.row) =
  Json.Obj
    [ ("fault_count", Json.Int row.Campaign.fault_count);
      ("trials", Json.Int row.Campaign.trials);
      ("detected", Json.Int row.Campaign.detected);
      ("short_draws", Json.Int row.Campaign.short_draws);
      ("void_draws", Json.Int row.Campaign.void_draws);
      ("mean_latency", Json.Float row.Campaign.mean_latency) ]

let rendered_rows (r : Campaign.result) =
  (* Exactly the [faults=…] lines [Campaign.pp_result] prints — render the
     full report and keep only those, so this can never drift from the CLI
     output (the wall-clock line is dropped: it is not reproducible). *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Campaign.pp_result ppf r;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
  |> String.split_on_char '\n'
  |> List.filter (fun line -> String.length line >= 7 && String.sub line 0 7 = "faults=")
  |> List.map (fun line -> line ^ "\n")
  |> String.concat ""

let campaign_result_json ~layout_hash (r : Campaign.result) =
  Json.Obj
    [ ("layout_hash", Json.String layout_hash);
      ("rows", Json.List (List.map row_json r.Campaign.rows));
      ("truncated",
       Json.List (List.map (fun c -> Json.Int c) r.Campaign.truncated));
      ("rendered", Json.String (rendered_rows r)) ]
