(* serve_inproc: the daemon's answer to a warm generate request, taken
   in one thread of this process.  Set-up fills an Fpva_serve.Cache with
   the suites of the seeded 10x10 and 20x20 arrays, as the daemon's first
   request for each array does.  Each operation then takes one request
   line through the public calls the daemon's request handler makes for a
   suite-cache hit -- Json.parse, Protocol.request_of_json, Cache.resolve,
   Cache.find_suite, Protocol.generate_result_json, Protocol.ok_frame --
   and yields the response frame with the full suite text.  Requests
   pick either array with equal probability, from the seed.  Throughput
   counts every request; latency is that of the 20x20's requests alone, so
   its median is not a blend of two sizes.  No socket and no worker thread
   is involved: METRICS.md says why the daemon's two-connection loop is
   not a workload. *)

open Fpva_grid
open Common
module R = Perfbench_report.Report
module Json = Fpva_serve.Json
module Protocol = Fpva_serve.Protocol
module Cache = Fpva_serve.Cache
module Pipeline = Fpva_testgen.Pipeline

let sizes = [| 10; 20 |]

(* Requests guaranteed per array and run; fixes each array's tail at p99. *)
let planned = 1000

(* The suite-cache key of the default generation options.  The key is
   opaque to the cache; set-up stores under it and requests look it up. *)
let key = "perfbench-default"

type array_ = {
  line : string;  (** the generate request line *)
  suite_text : string;  (** what set-up generated and stored *)
  total : int;  (** N *)
}

let request_line layout =
  Json.to_string
    (Protocol.request_to_json
       { Protocol.id = None;
         deadline_ms = None;
         idempotency_key = None;
         request = Protocol.Generate { layout; gen = Protocol.default_gen_options } })

(* A cold request for one array: resolve, generate, store. *)
let warm cache n ~seed =
  let layout = Render.plain (Seeded.paper_array ~seed n) in
  match Cache.resolve cache layout with
  | Error msg -> failwith msg
  | Ok (hash, fpva) ->
    let result = Pipeline.run_exn fpva in
    let suite_text = Fpva_testgen.Suite_io.to_string fpva result.Pipeline.vectors in
    Cache.store_suite cache ~hash ~key (result, suite_text);
    { line = request_line layout; suite_text; total = result.Pipeline.total }

let setup ~seed =
  setup_median (fun () ->
      let cache = Cache.create () in
      (cache, Array.map (fun n -> warm cache n ~seed) sizes))

(* One warm generate request, line in, frame out.  The calls into the
   cache and the encoders are spans of their own when tracing is on. *)
let respond cache line =
  let ( let* ) = Result.bind in
  let* json = Json.parse line in
  let* env = Protocol.request_of_json json in
  let* layout =
    match env.Protocol.request with
    | Protocol.Generate { layout; _ } -> Ok layout
    | _ -> Error "not a generate request"
  in
  let* hash, _ = Trace.with_span "bench.resolve" (fun () -> Cache.resolve cache layout) in
  let* result, suite_text =
    Option.to_result ~none:"suite cache miss" (Cache.find_suite cache ~hash ~key)
  in
  let payload =
    Trace.with_span "bench.result_json" (fun () ->
        match Protocol.generate_result_json ~layout_hash:hash ~suite_text result with
        | Json.Obj kvs -> Json.Obj (("cached", Json.Bool true) :: kvs)
        | other -> other)
  in
  Ok (Trace.with_span "bench.frame_print" (fun () -> Protocol.ok_frame ~id:None payload))

(* What a client reads back from a frame: ok, cached, suite_ok, N and the
   suite text. *)
let decode frame =
  match Json.parse frame with
  | Error _ -> None
  | Ok j -> (
    match Protocol.response_result j with
    | Some r when Protocol.response_ok j ->
      Some
        ( Json.get_bool "cached" r,
          Json.get_bool "suite_ok" r,
          Json.get_int "total" r,
          Json.get_string "suite" r )
    | _ -> None)

let frame_ok a frame =
  decode frame = Some (Some true, Some true, Some a.total, Some a.suite_text)

type loop = {
  times : float array array;  (** per array: each request's seconds *)
  oks : bool list;  (** per request: a frame byte-identical to the first *)
  firsts : string option array;  (** each array's first frame *)
}

(* Requests go to the arrays in a seeded random order, for [seconds] and
   until each array has had [planned], or exactly [count] in all when
   given: a fixed alternation would let the garbage collector's slices
   land on one array's requests run after run.  Every frame of one array
   must equal its first byte for byte; the first is decoded and checked
   after the loop.  Only [respond] is timed.  With [client], the traced
   run also parses every frame back, as a client would, in a span of its
   own. *)
let loop cache arrays ~seed ~seconds ?count ?(client = false) () =
  let k = Array.length arrays in
  let rng = Fpva_util.Rng.create seed in
  let times = Array.make k [] and counts = Array.make k 0 and oks = ref [] in
  let firsts = Array.make k None in
  let one () =
    let a = Fpva_util.Rng.int rng k in
    let t0 = now () in
    let frame = respond cache arrays.(a).line in
    times.(a) <- Timer.elapsed t0 :: times.(a);
    counts.(a) <- counts.(a) + 1;
    let ok =
      match (frame, firsts.(a)) with
      | Error _, _ -> false
      | Ok f, None ->
        firsts.(a) <- Some f;
        true
      | Ok f, Some first -> String.equal f first
    in
    (match frame with
    | Ok f when client ->
      ignore (Trace.with_span "bench.frame_parse" (fun () -> Json.parse f))
    | _ -> ());
    oks := ok :: !oks
  in
  (match count with
  | Some n -> for _ = 1 to n do one () done
  | None ->
    let t0 = now () in
    while Timer.elapsed t0 < seconds || Array.exists (fun c -> c < planned) counts do
      one ()
    done);
  { times = Array.map (fun ts -> Array.of_list (List.rev ts)) times;
    oks = List.rev !oks;
    firsts }

let firsts_ok arrays l =
  Array.for_all2
    (fun a f -> Option.fold ~none:false ~some:(frame_ok a) f)
    arrays l.firsts

let per_s xs = float_of_int (Array.length xs) /. sum (Array.to_list xs)
let busy l = sum (List.concat_map Array.to_list (Array.to_list l.times))

(* Suite vectors carried by all the frames of a loop. *)
let vectors l arrays =
  Array.mapi (fun a ts -> Array.length ts * arrays.(a).total) l.times
  |> Array.to_list |> sum_int |> float_of_int

let run ~seed ~seconds ~trace =
  let (cache, arrays), setup_s = setup ~seed in
  let l = loop cache arrays ~seed ~seconds () in
  let stats0 = Cache.suite_stats cache in
  let counts = R.of_outcomes l.oks in
  let n = List.length l.oks in
  let checks =
    [ ( "every frame decodes to ok, cached, suite_ok and the generated suite",
        firsts_ok arrays l && counts.R.failed = 0 ) ]
  in
  let small = l.times.(0) and large = l.times.(1) in
  let t = R.timing ~planned large in
  log "serve_inproc: %d requests, %d on the 10x10 (N=%d), %d on the 20x20 (N=%d)" n
    (Array.length small) arrays.(0).total (Array.length large) arrays.(1).total;
  log "all %.1f 1/s, 10x10 %.1f 1/s, 20x20 %.1f 1/s, 20x20 p50 %.4f ms p%g %.4f ms"
    (float_of_int n /. busy l) (per_s small) (per_s large) (1000.0 *. t.R.median)
    t.R.tail_pct (1000.0 *. t.R.tail);
  if not trace then
    { counts;
      checks;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb ());
          ("pass_ratio", 1.0 -. R.failed_ratio counts);
          ("primary_per_s", float_of_int n /. busy l);
          ("secondary_per_s", vectors l arrays /. busy l);
          ("op_p50_ms", 1000.0 *. t.R.median);
          ("op_tail_ms", 1000.0 *. t.R.tail);
          ( "vectors_per_op",
            float_of_int (arrays.(0).total + arrays.(1).total) /. 2.0 ) ] }
  else begin
    let traced_l, events, _ =
      traced (fun () -> loop cache arrays ~seed ~seconds ~count:n ~client:true ())
    in
    let stats1 = Cache.suite_stats cache in
    let hits = stats1.Cache.hits - stats0.Cache.hits
    and misses = stats1.Cache.misses - stats0.Cache.misses in
    (* Per KB of frame; the two arrays are asked about equally often. *)
    let frame_kb =
      sum
        (List.map
           (fun f -> float_of_int (String.length f) /. 1024.0)
           (List.filter_map Fun.id (Array.to_list l.firsts)))
      /. float_of_int (Array.length sizes)
    in
    let per_request name = 1e6 *. span_total events name /. float_of_int n in
    { counts;
      checks =
        checks
        @ [ ( "traced frames equal untraced frames",
              traced_l.firsts = l.firsts && List.for_all Fun.id traced_l.oks );
            ("every traced request is a suite-cache hit", hits = n && misses = 0) ];
      values =
        [ ("serve.resolve_us", per_request "bench.resolve");
          ("protocol.result_us", per_request "bench.result_json");
          ("json.print_us_per_kb", per_request "bench.frame_print" /. frame_kb);
          ("json.parse_us_per_kb", per_request "bench.frame_parse" /. frame_kb);
          ( "cache.suite_hit_ratio",
            float_of_int hits /. float_of_int (max 1 (hits + misses)) );
          ("trace_overhead_pct", overhead_pct ~untraced:(busy l) ~traced:(busy traced_l));
          ("op_samples", float_of_int t.R.samples);
          ("op_tail_pct", t.R.tail_pct) ] }
  end
