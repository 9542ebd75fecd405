(* The persistent test service: wire protocol, caches, and — the point of
   the exercise — chaos coverage.  Every server case below runs a real
   daemon (worker threads, accept loop) on a unix socket in the temp
   directory and attacks it over the actual wire; the invariant under test
   throughout is that the daemon never dies and never wedges. *)

open Helpers
open Fpva_grid
open Fpva_testgen
module Json = Fpva_serve.Json
module Protocol = Fpva_serve.Protocol
module Cache = Fpva_serve.Cache
module Server = Fpva_serve.Server
module Client = Fpva_serve.Client
module Campaign = Fpva_sim.Campaign

(* ---------- helpers ---------- *)

let six = lazy (Layouts.paper_array 6)

let six_text = lazy (Render.plain (Lazy.force six))

let next_sock = ref 0

let fresh_sock_path () =
  incr next_sock;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fpva-test-%d-%d.sock" (Unix.getpid ()) !next_sock)

(* Run [f server addr] against a live daemon; always stopped, joined and
   its socket file removed, however [f] ends. *)
let with_server ?(tweak = fun c -> c) f =
  let path = fresh_sock_path () in
  let cfg =
    tweak
      { (Server.default_config (Protocol.Unix_sock path)) with
        Server.log = ignore }
  in
  match Server.create cfg with
  | Error msg -> Alcotest.fail ("server create: " ^ msg)
  | Ok server ->
    let th = Thread.create Server.run server in
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Thread.join th;
        try Unix.unlink path with _ -> ())
      (fun () -> f server (Protocol.Unix_sock path))

let connect_raw = function
  | Protocol.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Protocol.Tcp _ -> Alcotest.fail "tests use unix sockets"

let send_raw fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

(* One newline-terminated frame, or None on EOF/timeout. *)
let recv_frame ?(timeout = 30.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> Some (String.sub s 0 i)
    | None ->
      if Unix.gettimeofday () > deadline then None
      else (
        match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()))
  in
  go ()

let close_raw fd = try Unix.close fd with Unix.Unix_error _ -> ()

let call ?(retries = 0) ?deadline_ms ?key addr request =
  let cfg = { (Client.default_config addr) with Client.retries } in
  Client.call cfg
    { Protocol.id = Some "t"; deadline_ms; idempotency_key = key; request }

let ok_result msg = function
  | Error e -> Alcotest.fail (msg ^ ": " ^ e)
  | Ok json ->
    checkb (msg ^ ": ok frame") true (Protocol.response_ok json);
    (match Protocol.response_result json with
    | Some r -> r
    | None -> Alcotest.fail (msg ^ ": no result payload"))

let error_code_of json =
  match Protocol.response_error json with
  | Some (code, _) -> Protocol.code_name code
  | None -> Alcotest.fail "expected an error frame"

let ping_works addr =
  let r = ok_result "ping" (call addr Protocol.Ping) in
  checkb "pong" true (Json.get_bool "pong" r = Some true)

let default_gen = Protocol.default_gen_options

(* What the daemon should produce for [six] — computed cold, in-process. *)
let cold_suite =
  lazy
    (let t = Lazy.force six in
     let r = Pipeline.run_exn t in
     (r, Suite_io.to_string t r.Pipeline.vectors))

(* ---------- json ---------- *)

let json_tests =
  [
    case "to_string/parse round-trips nested values" (fun () ->
        let v =
          Json.Obj
            [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
              ("s", Json.String "line\n\"quoted\"\ttab");
              ("b", Json.Bool false);
              ("o", Json.Obj [ ("nested", Json.String "x") ]) ]
        in
        match Json.parse (Json.to_string v) with
        | Ok v' -> checkb "equal" true (v = v')
        | Error e -> Alcotest.fail e);
    case "parse rejects garbage with a byte offset" (fun () ->
        match Json.parse "not json at all" with
        | Ok _ -> Alcotest.fail "accepted garbage"
        | Error msg ->
          checkb "mentions the byte" true
            (String.length msg > 0
            && (let has needle =
                  let n = String.length needle and l = String.length msg in
                  let rec go i =
                    i + n <= l && (String.sub msg i n = needle || go (i + 1))
                  in
                  go 0
                in
                has "byte")));
    case "parse rejects truncated frames" (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | Ok _ -> Alcotest.fail ("accepted truncated " ^ s)
            | Error _ -> ())
          [ "{\"a\":1"; "[1,2"; "\"unterminated"; "{\"a\":"; "tru" ]);
    case "parse rejects trailing garbage" (fun () ->
        match Json.parse "{} x" with
        | Ok _ -> Alcotest.fail "accepted trailing garbage"
        | Error _ -> ());
    case "unicode escapes decode (surrogate pairs included)" (fun () ->
        match Json.parse "\"\\u0041\\uD83D\\uDE00\"" with
        | Ok (Json.String s) -> check Alcotest.string "utf8" "A\xf0\x9f\x98\x80" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e);
    case "get_int accepts integral floats" (fun () ->
        let o = Json.Obj [ ("n", Json.Float 3.0); ("x", Json.Float 3.5) ] in
        checkb "3.0 is 3" true (Json.get_int "n" o = Some 3);
        checkb "3.5 is not an int" true (Json.get_int "x" o = None));
    case "parse caps nesting depth" (fun () ->
        let deep = String.concat "" (List.init 300 (fun _ -> "[")) in
        match Json.parse deep with
        | Ok _ -> Alcotest.fail "accepted 300-deep nesting"
        | Error _ -> ());
  ]

(* ---------- protocol ---------- *)

let protocol_tests =
  [
    case "request envelopes round-trip through JSON" (fun () ->
        let env =
          { Protocol.id = Some "r1";
            deadline_ms = Some 2500;
            idempotency_key = Some "k";
            request =
              Protocol.Campaign
                { layout = "XX";
                  gen = { Protocol.direct = true; block = 3; no_leakage = true };
                  campaign =
                    { Protocol.trials = 77;
                      seed = 9;
                      max_faults = 2;
                      classes = [ `Stuck_at_1; `Control_leak ];
                      jobs = 2 } } }
        in
        match Protocol.request_of_json (Protocol.request_to_json env) with
        | Ok env' -> checkb "equal" true (env = env')
        | Error e -> Alcotest.fail e);
    case "malformed requests are rejected with a reason" (fun () ->
        List.iter
          (fun (frame, why) ->
            match
              Result.bind (Json.parse frame) Protocol.request_of_json
            with
            | Ok _ -> Alcotest.fail ("accepted " ^ why)
            | Error _ -> ())
          [ ("{}", "missing op");
            ("{\"op\":\"launch\"}", "unknown op");
            ("{\"op\":\"ping\",\"deadline_ms\":-1}", "negative deadline");
            ("{\"op\":\"ping\",\"deadline_ms\":\"soon\"}", "mistyped deadline");
            ("{\"op\":\"generate\"}", "missing layout");
            ("{\"op\":\"generate\",\"layout\":\"\"}", "empty layout");
            ( "{\"op\":\"campaign\",\"layout\":\"X\",\"classes\":[]}",
              "empty classes" );
            ("[1,2,3]", "non-object frame") ])
    ;
    case "error frames carry code and retryability" (fun () ->
        let frame =
          Protocol.error_frame ~id:(Some "x") Protocol.Overloaded "busy"
        in
        match Json.parse frame with
        | Error e -> Alcotest.fail e
        | Ok json ->
          checkb "not ok" false (Protocol.response_ok json);
          (match Protocol.response_error json with
          | Some (Protocol.Overloaded, msg) ->
            check Alcotest.string "message" "busy" msg
          | _ -> Alcotest.fail "wrong code");
          checkb "retryable flag serialised" true
            (match Json.member "error" json with
            | Some err -> Json.get_bool "retryable" err = Some true
            | None -> false));
    case "retryability is exactly overloaded/shutting_down" (fun () ->
        checkb "overloaded" true (Protocol.retryable Protocol.Overloaded);
        checkb "shutting_down" true (Protocol.retryable Protocol.Shutting_down);
        checkb "bad_request" false (Protocol.retryable Protocol.Bad_request);
        checkb "frame_too_large" false
          (Protocol.retryable Protocol.Frame_too_large);
        checkb "internal" false (Protocol.retryable Protocol.Internal));
  ]

(* ---------- caches ---------- *)

let cache_tests =
  [
    case "resolve hashes canonically and caches the layout" (fun () ->
        let c = Cache.create () in
        let text = Lazy.force six_text in
        let h1, _ = Result.get_ok (Cache.resolve c text) in
        let h2, _ = Result.get_ok (Cache.resolve c text) in
        check Alcotest.string "same hash" h1 h2;
        let s = Cache.stats c in
        checki "one miss" 1 s.Cache.misses;
        checki "one hit" 1 s.Cache.hits;
        checki "one entry" 1 s.Cache.size);
    case "resolve rejects invalid layouts" (fun () ->
        let c = Cache.create () in
        match Cache.resolve c "definitely not a layout" with
        | Ok _ -> Alcotest.fail "accepted garbage layout"
        | Error msg -> checkb "reason given" true (String.length msg > 0));
    case "LRU evicts the least recently used layout" (fun () ->
        let c = Cache.create ~capacity:2 () in
        let text n = Render.plain (Layouts.paper_array n) in
        let h4, _ = Result.get_ok (Cache.resolve c (text 4)) in
        let _h5 = Result.get_ok (Cache.resolve c (text 5)) in
        (* Touch 4 so 5 becomes the eviction victim. *)
        let h4', _ = Result.get_ok (Cache.resolve c (text 4)) in
        check Alcotest.string "4 still cached" h4 h4';
        let _h6 = Result.get_ok (Cache.resolve c (text 6)) in
        let s = Cache.stats c in
        checki "capacity held" 2 s.Cache.size;
        checki "one eviction" 1 s.Cache.evictions;
        (* 5 was evicted: resolving it again is a miss, 4 is still a hit. *)
        let misses_before = (Cache.stats c).Cache.misses in
        ignore (Result.get_ok (Cache.resolve c (text 5)));
        checki "5 re-resolved as a miss" (misses_before + 1)
          (Cache.stats c).Cache.misses);
    case "per-layout suite cache stores and finds by config key" (fun () ->
        let c = Cache.create () in
        let t = Layouts.paper_array 4 in
        let hash, _ = Result.get_ok (Cache.resolve c (Render.plain t)) in
        let r = Pipeline.run_exn t in
        let suite = Suite_io.to_string t r.Pipeline.vectors in
        checkb "empty before store" true
          (Cache.find_suite c ~hash ~key:"k1" = None);
        Cache.store_suite c ~hash ~key:"k1" (r, suite);
        (match Cache.find_suite c ~hash ~key:"k1" with
        | Some (_, s) -> check Alcotest.string "suite text" suite s
        | None -> Alcotest.fail "stored suite not found");
        checkb "other key still empty" true
          (Cache.find_suite c ~hash ~key:"k2" = None));
    case "response cache is a bounded LRU" (fun () ->
        let r = Cache.Responses.create ~capacity:1 () in
        Cache.Responses.put r "a" "frame-a";
        Cache.Responses.put r "b" "frame-b";
        checkb "a evicted" true (Cache.Responses.find r "a" = None);
        checkb "b present" true (Cache.Responses.find r "b" = Some "frame-b"));
  ]

(* ---------- the daemon under chaos ---------- *)

let server_tests =
  [
    case "ping and stats over the wire" (fun () ->
        with_server (fun server addr ->
            ping_works addr;
            let stats = ok_result "stats" (call addr Protocol.Stats) in
            checkb "counts the requests" true
              (match Json.get_int "requests" stats with
              | Some n -> n >= 1
              | None -> false);
            (* stats_json agrees with the wire on shape *)
            checkb "in-process stats render" true
              (Json.to_string (Server.stats_json server) <> "")));
    case "generate matches the cold pipeline byte-for-byte" (fun () ->
        with_server (fun _ addr ->
            let cold, cold_text = Lazy.force cold_suite in
            let req =
              Protocol.Generate
                { layout = Lazy.force six_text; gen = default_gen }
            in
            let r = ok_result "generate" (call addr req) in
            check Alcotest.string "suite text" cold_text
              (Option.value ~default:"" (Json.get_string "suite" r));
            checkb "not degraded" true
              (Json.get_bool "degraded" r = Some false);
            checkb "cold request" true (Json.get_bool "cached" r = Some false);
            checkb "vector count" true
              (Json.get_int "total" r = Some cold.Pipeline.total);
            (* The second identical request is served from the suite
               cache, byte-identical. *)
            let r2 = ok_result "generate (warm)" (call addr req) in
            checkb "warm request" true (Json.get_bool "cached" r2 = Some true);
            check Alcotest.string "warm suite text" cold_text
              (Option.value ~default:"" (Json.get_string "suite" r2))));
    case "campaign rows match the cold run byte-for-byte" (fun () ->
        with_server (fun _ addr ->
            let t = Lazy.force six in
            let cold, _ = Lazy.force cold_suite in
            let config =
              { Campaign.default_config with
                Campaign.trials = 120;
                fault_counts = [ 1; 2 ];
                seed = 7 }
            in
            let direct =
              Campaign.run ~config ~jobs:2 t
                ~vectors:cold.Pipeline.vectors
            in
            let expected =
              Format.asprintf "%a" Campaign.pp_result direct
              |> String.split_on_char '\n'
              |> List.filter (fun l ->
                     String.length l >= 7 && String.sub l 0 7 = "faults=")
              |> List.map (fun l -> l ^ "\n")
              |> String.concat ""
            in
            let r =
              ok_result "campaign"
                (call addr
                   (Protocol.Campaign
                      { layout = Lazy.force six_text;
                        gen = default_gen;
                        campaign =
                          { Protocol.trials = 120;
                            seed = 7;
                            max_faults = 2;
                            classes = [ `Stuck_at_0; `Stuck_at_1 ];
                            jobs = 2 } }))
            in
            check Alcotest.string "rendered rows" expected
              (Option.value ~default:"" (Json.get_string "rendered" r));
            checkb "nothing truncated" true
              (Json.get_list "truncated" r = Some [])));
    case "idempotency keys replay byte-identical responses" (fun () ->
        with_server (fun _ addr ->
            let line =
              Json.to_string
                (Protocol.request_to_json
                   { Protocol.id = Some "i1";
                     deadline_ms = None;
                     idempotency_key = Some "idem-test-key";
                     request =
                       Protocol.Generate
                         { layout = Lazy.force six_text; gen = default_gen } })
            in
            let fd = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw fd)
              (fun () ->
                send_raw fd (line ^ "\n");
                let first = recv_frame fd in
                send_raw fd (line ^ "\n");
                let second = recv_frame fd in
                match (first, second) with
                | Some a, Some b ->
                  checkb "byte-identical replay" true (String.equal a b)
                | _ -> Alcotest.fail "missing response frames");
            let stats = ok_result "stats" (call addr Protocol.Stats) in
            checkb "replay counted" true
              (Json.get_int "idem_hits" stats = Some 1)));
    case "a deadline degrades the result instead of hanging" (fun () ->
        with_server (fun _ addr ->
            let req =
              Protocol.Generate
                { layout = Lazy.force six_text; gen = default_gen }
            in
            let r = ok_result "deadline 0" (call ~deadline_ms:0 addr req) in
            checkb "degraded" true (Json.get_bool "degraded" r = Some true);
            (* The degraded suite must NOT poison the cache: the same
               request with no deadline gets the full result. *)
            let r2 = ok_result "unbounded" (call addr req) in
            checkb "full result afterwards" true
              (Json.get_bool "degraded" r2 = Some false);
            checkb "degraded result was not cached" true
              (Json.get_bool "cached" r2 = Some false)));
    case "chaos: truncated frame then EOF leaves the daemon serving"
      (fun () ->
        with_server (fun _ addr ->
            let fd = connect_raw addr in
            send_raw fd "{\"op\":\"gen";
            close_raw fd;
            ping_works addr));
    case "chaos: garbage JSON answered on a surviving connection" (fun () ->
        with_server (fun _ addr ->
            let fd = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw fd)
              (fun () ->
                send_raw fd "!!! not json !!!\n";
                (match recv_frame fd with
                | None -> Alcotest.fail "no error frame"
                | Some frame ->
                  let json = Result.get_ok (Json.parse frame) in
                  check Alcotest.string "code" "bad_request"
                    (error_code_of json));
                (* Same connection keeps working. *)
                send_raw fd "{\"op\":\"ping\"}\n";
                match recv_frame fd with
                | None -> Alcotest.fail "connection was poisoned"
                | Some frame ->
                  checkb "ping ok" true
                    (Protocol.response_ok (Result.get_ok (Json.parse frame))))));
    case "chaos: mid-request disconnect poisons only that connection"
      (fun () ->
        with_server (fun _ addr ->
            let fd = connect_raw addr in
            send_raw fd
              (Json.to_string
                 (Protocol.request_to_json
                    { Protocol.id = None;
                      deadline_ms = None;
                      idempotency_key = None;
                      request =
                        Protocol.Campaign
                          { layout = Lazy.force six_text;
                            gen = default_gen;
                            campaign =
                              { Protocol.default_campaign_options with
                                Protocol.trials = 2000 } } })
              ^ "\n");
            (* Hang up before the response can possibly be written. *)
            close_raw fd;
            Thread.delay 0.1;
            ping_works addr));
    case "chaos: oversized frames are rejected, daemon lives" (fun () ->
        with_server
          ~tweak:(fun c -> { c with Server.max_frame = 1024 })
          (fun _ addr ->
            let fd = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw fd)
              (fun () ->
                send_raw fd (String.make 4096 'x');
                match recv_frame fd with
                | None -> Alcotest.fail "no frame_too_large frame"
                | Some frame ->
                  let json = Result.get_ok (Json.parse frame) in
                  check Alcotest.string "code" "frame_too_large"
                    (error_code_of json));
            ping_works addr));
    case "chaos: crash op is isolated when enabled, refused when not"
      (fun () ->
        with_server
          ~tweak:(fun c -> { c with Server.chaos_ops = true })
          (fun _ addr ->
            match call addr Protocol.Crash with
            | Error e -> Alcotest.fail e
            | Ok json ->
              check Alcotest.string "code" "internal" (error_code_of json);
              (* The raising request killed nothing. *)
              ping_works addr);
        with_server (fun _ addr ->
            match call addr Protocol.Crash with
            | Error e -> Alcotest.fail e
            | Ok json ->
              check Alcotest.string "code" "bad_request" (error_code_of json)));
    case "chaos: stalled half-frame is cut at idle timeout, others served"
      (fun () ->
        with_server
          ~tweak:(fun c -> { c with Server.idle_timeout = 0.5; workers = 2 })
          (fun _ addr ->
            let fd = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw fd)
              (fun () ->
                send_raw fd "{\"op\":";
                (* The stalled connection must not block other requests. *)
                ping_works addr;
                (* …and is closed once the idle timeout passes. *)
                match recv_frame ~timeout:5.0 fd with
                | None -> ()  (* EOF — closed, as required *)
                | Some frame ->
                  Alcotest.fail ("unexpected frame on stalled conn: " ^ frame))));
    case "backpressure: full queue sheds load with a retryable frame"
      (fun () ->
        with_server
          ~tweak:(fun c -> { c with Server.workers = 1; max_queue = 0 })
          (fun _ addr ->
            (* Occupy the only worker with an idle connection… *)
            let holder = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw holder)
              (fun () ->
                Thread.delay 0.3;
                (* …so the next connection must be shed. *)
                let fd = connect_raw addr in
                Fun.protect
                  ~finally:(fun () -> close_raw fd)
                  (fun () ->
                    match recv_frame fd with
                    | None -> Alcotest.fail "no overloaded frame"
                    | Some frame ->
                      let json = Result.get_ok (Json.parse frame) in
                      check Alcotest.string "code" "overloaded"
                        (error_code_of json);
                      (match Protocol.response_error json with
                      | Some (code, _) ->
                        checkb "retryable" true (Protocol.retryable code)
                      | None -> Alcotest.fail "no error payload")))));
    case "drain: stop lets the in-flight request finish" (fun () ->
        with_server (fun server addr ->
            let fd = connect_raw addr in
            Fun.protect
              ~finally:(fun () -> close_raw fd)
              (fun () ->
                send_raw fd
                  (Json.to_string
                     (Protocol.request_to_json
                        { Protocol.id = Some "drain";
                          deadline_ms = None;
                          idempotency_key = None;
                          request =
                            Protocol.Campaign
                              { layout = Lazy.force six_text;
                                gen = default_gen;
                                campaign =
                                  { Protocol.default_campaign_options with
                                    Protocol.trials = 3000;
                                    max_faults = 2 } } })
                  ^ "\n");
                Thread.delay 0.1;
                Server.stop server;
                match recv_frame fd with
                | None -> Alcotest.fail "in-flight request was dropped"
                | Some frame ->
                  checkb "completed ok during drain" true
                    (Protocol.response_ok (Result.get_ok (Json.parse frame))))));
    case "client: gives up with a clear error when nobody listens" (fun () ->
        let addr = Protocol.Unix_sock (fresh_sock_path ()) in
        let cfg =
          { (Client.default_config addr) with
            Client.retries = 2;
            base_backoff = 0.01;
            max_backoff = 0.02 }
        in
        match
          Client.call cfg
            { Protocol.id = None;
              deadline_ms = None;
              idempotency_key = None;
              request = Protocol.Ping }
        with
        | Ok _ -> Alcotest.fail "call succeeded against nothing"
        | Error msg ->
          checkb "mentions the attempts" true
            (let has needle =
               let n = String.length needle and l = String.length msg in
               let rec go i =
                 i + n <= l && (String.sub msg i n = needle || go (i + 1))
               in
               go 0
             in
             has "3 attempts"));
    case "client: fresh_key yields distinct keys" (fun () ->
        let a = Client.fresh_key () and b = Client.fresh_key () in
        checkb "distinct" true (a <> b));
  ]

(* ---------- cache counters over the wire ---------- *)

let stats_field stats name field =
  match Json.member name stats with
  | Some cache -> (
    match Json.get_int field cache with
    | Some n -> n
    | None -> Alcotest.fail (name ^ "." ^ field ^ " missing"))
  | None -> Alcotest.fail (name ^ " missing from stats")

let stats_tests =
  [
    case "stats exposes layout/suite/response cache counters and queue \
          depth" (fun () ->
        with_server (fun _ addr ->
            let gen_req =
              Protocol.Generate
                { layout = Lazy.force six_text; gen = default_gen }
            in
            (* First generate misses the suite cache, the repeat hits. *)
            ignore (ok_result "generate 1" (call addr gen_req));
            ignore (ok_result "generate 2" (call addr gen_req));
            let stats = ok_result "stats" (call addr Protocol.Stats) in
            checkb "suite miss counted" true
              (stats_field stats "suite_cache" "misses" >= 1);
            checkb "suite hit counted" true
              (stats_field stats "suite_cache" "hits" >= 1);
            checkb "layout traffic counted" true
              (stats_field stats "layout_cache" "misses"
               + stats_field stats "layout_cache" "hits"
              >= 2);
            ignore (stats_field stats "response_cache" "hits");
            checkb "queue depth reported" true
              (Json.get_int "queue_depth" stats <> None)));
  ]

(* ---------- checkpointed campaign requests ---------- *)

module Checkpoint = Fpva_sim.Checkpoint
module Trace = Fpva_util.Trace

let checkpoint_serve_tests =
  [
    case "a campaign request resumes from the checkpoint dir (and cleans \
          up after itself)" (fun () ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "fpva-serve-ckpt-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
              (try Sys.readdir dir with _ -> [||]);
            try Unix.rmdir dir with _ -> ())
          (fun () ->
            let t = Lazy.force six in
            let result, _ = Lazy.force cold_suite in
            let vectors = result.Pipeline.vectors in
            let campaign_config =
              { Campaign.trials = 600; seed = 9;
                classes = [ `Stuck_at_0; `Stuck_at_1 ];
                fault_counts = [ 1; 2 ] }
            in
            let cold =
              Fpva_serve.Protocol.rendered_rows
                (Campaign.run ~config:campaign_config t ~vectors)
            in
            (* Plant a *partial* checkpoint where the daemon will look —
               exactly what a kill -9 mid-request leaves behind. *)
            let key = Campaign.checkpoint_key campaign_config t ~vectors in
            let path =
              Filename.concat dir (Checkpoint.key_digest key ^ ".ckpt")
            in
            (match Checkpoint.open_ ~path ~resume:false ~key () with
            | Error e -> Alcotest.fail (Checkpoint.open_error_to_string e)
            | Ok ck ->
              ignore (Campaign.run ~config:campaign_config ~checkpoint:ck t ~vectors);
              Checkpoint.close ck);
            let size = (Unix.stat path).Unix.st_size in
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Unix.ftruncate fd (size * 2 / 3);
            Unix.close fd;
            Trace.enable ();
            Fun.protect ~finally:Trace.disable (fun () ->
                let skipped () =
                  Option.value ~default:0
                    (List.assoc_opt "checkpoint.shards_skipped"
                       (Trace.counters ()))
                in
                let before = skipped () in
                with_server
                  ~tweak:(fun c -> { c with Server.checkpoint_dir = Some dir })
                  (fun _ addr ->
                    let req =
                      Protocol.Campaign
                        { layout = Lazy.force six_text;
                          gen = default_gen;
                          campaign =
                            { Protocol.trials = 600; seed = 9; max_faults = 2;
                              classes = [ `Stuck_at_0; `Stuck_at_1 ];
                              jobs = 2 } }
                    in
                    let r = ok_result "campaign" (call addr req) in
                    (match Json.get_string "rendered" r with
                    | Some rendered ->
                      check Alcotest.string "rows identical to cold" cold
                        rendered
                    | None -> Alcotest.fail "no rendered rows");
                    checkb "resumed the planted shards (vacuity)" true
                      (skipped () > before);
                    checkb "journal deleted once the request completed"
                      false (Sys.file_exists path)))));
  ]

(* ---------- bounded client retries ---------- *)

let retry_cap_tests =
  [
    case "retries cap: exhaustion reports the last failure" (fun () ->
        let addr = Protocol.Unix_sock (fresh_sock_path ()) in
        let cfg =
          { (Client.default_config addr) with
            Client.retries = 2;
            base_backoff = 0.001;
            max_backoff = 0.002 }
        in
        match
          Client.call cfg
            { Protocol.id = None; deadline_ms = None;
              idempotency_key = None; request = Protocol.Ping }
        with
        | Ok _ -> Alcotest.fail "nobody was listening"
        | Error msg ->
          checkb "counts its attempts" true
            (let has needle =
               let n = String.length needle and l = String.length msg in
               let rec go i =
                 i + n <= l && (String.sub msg i n = needle || go (i + 1))
               in
               go 0
             in
             has "3 attempts"));
    case "retry budget bounds wall clock against a never-ready socket"
      (fun () ->
        (* Bound and listening but never accepting: connects land in the
           backlog and the request then hangs — only the budget's clamp on
           the read timeout can save the client. *)
        let path = fresh_sock_path () in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 8;
        Fun.protect
          ~finally:(fun () ->
            close_raw fd;
            try Unix.unlink path with _ -> ())
          (fun () ->
            let cfg =
              { (Client.default_config (Protocol.Unix_sock path)) with
                Client.retries = 50;
                retry_budget = Some 0.4;
                read_timeout = 120.0;
                base_backoff = 0.01;
                max_backoff = 0.05 }
            in
            let t0 = Unix.gettimeofday () in
            match
              Client.call cfg
                { Protocol.id = None; deadline_ms = None;
                  idempotency_key = None; request = Protocol.Ping }
            with
            | Ok _ -> Alcotest.fail "server never answered, yet Ok"
            | Error _ ->
              let elapsed = Unix.gettimeofday () -. t0 in
              checkb
                (Printf.sprintf "gave up within the budget (%.2fs)" elapsed)
                true (elapsed < 5.0)));
  ]

(* ---------- CLI exit codes ---------- *)

let cli = Filename.concat ".." (Filename.concat "bin" "fpva_cli.exe")

let run_cli args = Sys.command (cli ^ " " ^ args ^ " >/dev/null 2>&1")

let exit_code_tests =
  [
    case "exit 0 on success" (fun () -> checki "show" 0 (run_cli "show -n 4"));
    case "exit 2 on invalid input" (fun () ->
        checki "unknown layout" 2 (run_cli "generate --layout bogus");
        checki "bad class list" 2
          (run_cli "campaign -n 4 --trials 1 --classes nope");
        checki "negative trials" 2 (run_cli "campaign -n 4 --trials=-1");
        checki "zero trials" 2 (run_cli "campaign -n 4 --trials 0");
        checki "negative trials under noise" 2
          (run_cli "campaign -n 4 --trials=-1 --noise 0.1");
        checki "negative fault count" 2
          (run_cli "campaign -n 4 --trials 1 --max-faults=-1");
        checki "bad routing" 2 (run_cli "generate -n 4 --routing warp");
        checki "zero block" 2 (run_cli "generate -n 6 --block 0");
        checki "negative block" 2 (run_cli "generate -n 6 --block=-3");
        checki "zero block in campaign" 2
          (run_cli "campaign -n 4 --trials 1 --block 0");
        checki "zero block in diagnose" 2 (run_cli "diagnose -n 4 --block 0");
        checki "zero block in lifetime" 2 (run_cli "lifetime -n 4 --block 0");
        checki "zero rows in show" 2 (run_cli "show -n 0");
        checki "zero rows in generate" 2 (run_cli "generate -n 0");
        checki "zero cols" 2 (run_cli "generate --layout full -n 3 --cols 0");
        checki "NaN noise in campaign" 2
          (run_cli "campaign -n 4 --trials 1 --noise nan");
        checki "NaN noise in diagnose" 2
          (run_cli "diagnose -n 4 --inject sa0:1 --noise nan");
        checki "NaN time limit" 2
          (run_cli "generate -n 6 --time-limit=nan --strict");
        checki "NaN time limit in campaign" 2
          (run_cli "campaign -n 4 --trials 1 --time-limit=nan");
        checki "confidence above 1" 2
          (run_cli "diagnose -n 4 --sequential --inject sa0:1 --confidence 2");
        checki "NaN confidence" 2
          (run_cli "diagnose -n 4 --inject sa0:1 --confidence nan");
        checki "negative confidence" 2
          (run_cli "diagnose -n 4 --inject sa0:1 --confidence=-1");
        let file = Filename.temp_file "fpva" ".layout" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc port_on_obstacle_text);
            checki "port against an obstacle in show" 2
              (run_cli ("show --layout-file " ^ file));
            checki "port against an obstacle in generate" 2
              (run_cli ("generate --layout-file " ^ file))));
    case "exit 3 on strict degradation (budget timeout)" (fun () ->
        checki "generate --strict under a zero budget" 3
          (run_cli "generate -n 6 --time-limit 0 --strict");
        checki "campaign --strict under a zero budget" 3
          (run_cli
             "campaign -n 4 --trials 5 --max-faults 1 --time-limit 0 --strict"));
    case "exit 1 on internal/transport failure" (fun () ->
        checki "client with nobody listening" 1
          (run_cli
             "client ping --socket /nonexistent/fpva.sock --retries 0"));
    case "exit 1 when --max-attempts/--retry-budget-ms are exhausted"
      (fun () ->
        checki "capped client against nobody" 1
          (run_cli
             "client ping --socket /nonexistent/fpva.sock --max-attempts 2 \
              --retry-budget-ms 200"));
  ]

let layout_rejection_tests =
  [
    case "a port against an obstacle is a bad_request" (fun () ->
        with_server (fun _ addr ->
            match
              call addr
                (Protocol.Generate
                   { layout = port_on_obstacle_text; gen = default_gen })
            with
            | Error e -> Alcotest.fail e
            | Ok json ->
              check Alcotest.string "code" "bad_request" (error_code_of json)));
  ]

(* New groups go last, so the index of every earlier case (as used by
   [test_main.exe test serve N]) stays where it was. *)
let tests =
  json_tests @ protocol_tests @ cache_tests @ stats_tests @ server_tests
  @ checkpoint_serve_tests @ retry_cap_tests @ exit_code_tests
  @ layout_rejection_tests
