(* Crash-safe resume for campaigns and diagnosis.  The load-bearing
   property: interrupt a checkpointed run at a *random* byte boundary of
   its journal, resume on the truncated file — at jobs 1 and jobs 4 — and
   the rendered rows must be byte-identical to a cold, uninterrupted run.
   Everything else here guards the edges of that contract: key mismatches
   refuse, complete journals replay without recomputing, a full disk
   degrades to an uncheckpointed (still correct) run. *)

open Helpers
open Fpva_grid
open Fpva_testgen
module Campaign = Fpva_sim.Campaign
module Checkpoint = Fpva_sim.Checkpoint
module Diagnosis = Fpva_sim.Diagnosis
module Journal = Fpva_util.Journal
module Trace = Fpva_util.Trace

let six = lazy (Layouts.paper_array 6)

let suite =
  lazy
    (let r = Pipeline.run_exn (Lazy.force six) in
     r.Pipeline.vectors)

(* 600 trials x 2 rows at shard size 252 -> 3 shards per row, 6 total;
   small enough to run many times, big enough that truncation points land
   everywhere. *)
let config trials seed =
  { Campaign.trials; seed; fault_counts = [ 1; 2 ];
    classes = [ `Stuck_at_0; `Stuck_at_1 ] }

let rendered r = Fpva_serve.Protocol.rendered_rows r

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpva-ckpt-%d-%d.bin" (Unix.getpid ()) !n)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_size path = (Unix.stat path).Unix.st_size

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let open_ok ?wrap_io ~path ~resume ~key () =
  match Checkpoint.open_ ?wrap_io ~path ~resume ~key () with
  | Ok ck -> ck
  | Error e -> Alcotest.fail (Checkpoint.open_error_to_string e)

(* ---------- the resume-determinism property ---------- *)

(* Vacuity ledger for the property: across all qcheck cases, some resumed
   run must have both replayed and recomputed shards — otherwise the
   truncation points never actually exercised a mid-run resume. *)
let total_resumed = ref 0
let total_recomputed = ref 0

let resume_property (seed, cut_num) =
  let fpva = Lazy.force six and vectors = Lazy.force suite in
  let config = config 600 seed in
  let key = Campaign.checkpoint_key config fpva ~vectors in
  let cold = rendered (Campaign.run ~config ~jobs:1 fpva ~vectors) in
  with_tmp (fun path ->
      (* A complete checkpointed run, then an interruption: truncate the
         journal at a pseudo-random byte offset (possibly mid-record —
         recovery drops the torn tail). *)
      let ck = open_ok ~path ~resume:false ~key () in
      let warm = rendered (Campaign.run ~config ~checkpoint:ck fpva ~vectors) in
      Checkpoint.close ck;
      if warm <> cold then
        QCheck2.Test.fail_report "checkpointed run differs from cold run";
      let size = file_size path in
      let cut = 8 + (cut_num mod (size - 8)) in
      List.for_all
        (fun jobs ->
          truncate_file path cut;
          let ck = open_ok ~path ~resume:true ~key () in
          let r = Campaign.run ~config ~jobs ~checkpoint:ck fpva ~vectors in
          total_resumed := !total_resumed + Checkpoint.resumed_shards ck;
          total_recomputed := !total_recomputed + Checkpoint.recorded_shards ck;
          Checkpoint.close ck;
          rendered r = cold)
        [ 1; 4 ])

let property_tests =
  [
    qcheck ~count:12 "resume after random truncation is bit-identical (jobs 1 and 4)"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
      resume_property;
    case "the property exercised both replay and recompute (vacuity guard)"
      (fun () ->
        checkb "some shards replayed" true (!total_resumed > 0);
        checkb "some shards recomputed" true (!total_recomputed > 0));
    case "a journal resumes at another jobs value" (fun () ->
        (* A journal written by one worker can be completed by four, with
           rows identical to a cold run: shards are keyed by trial index,
           never by the worker that scored them. *)
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let config = config 600 23 in
        let key = Campaign.checkpoint_key config fpva ~vectors in
        let cold = rendered (Campaign.run ~config ~jobs:1 fpva ~vectors) in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            ignore (Campaign.run ~config ~jobs:1 ~checkpoint:ck fpva ~vectors);
            Checkpoint.close ck;
            truncate_file path (file_size path / 2);
            let ck = open_ok ~path ~resume:true ~key () in
            let r = Campaign.run ~config ~jobs:4 ~checkpoint:ck fpva ~vectors in
            checkb "resumed mid-way" true (Checkpoint.resumed_shards ck > 0);
            checkb "recomputed the tail" true
              (Checkpoint.recorded_shards ck > 0);
            Checkpoint.close ck;
            checkb "identical to the cold run" true (rendered r = cold)));
  ]

(* ---------- edges of the contract ---------- *)

let contract_tests =
  [
    case "resuming a complete journal replays everything, recomputes \
          nothing" (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let config = config 600 11 in
        let key = Campaign.checkpoint_key config fpva ~vectors in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            let first =
              rendered (Campaign.run ~config ~checkpoint:ck fpva ~vectors)
            in
            Checkpoint.close ck;
            let ck = open_ok ~path ~resume:true ~key () in
            let again =
              rendered (Campaign.run ~config ~checkpoint:ck fpva ~vectors)
            in
            checki "nothing recomputed" 0 (Checkpoint.recorded_shards ck);
            checkb "everything replayed" true
              (Checkpoint.resumed_shards ck > 0);
            Checkpoint.close ck;
            checkb "identical" true (first = again)));
    case "a key mismatch is refused, not silently restarted" (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let key = Campaign.checkpoint_key (config 600 1) fpva ~vectors in
        let other = Campaign.checkpoint_key (config 600 2) fpva ~vectors in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            Checkpoint.close ck;
            match Checkpoint.open_ ~path ~resume:true ~key:other () with
            | Error (Checkpoint.Key_mismatch _) -> ()
            | Error e ->
              Alcotest.fail
                ("wrong error: " ^ Checkpoint.open_error_to_string e)
            | Ok ck ->
              Checkpoint.close ck;
              Alcotest.fail "resumed under the wrong key"));
    case "seed and trials change the key; jobs does not" (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let k = Campaign.checkpoint_key (config 600 1) fpva ~vectors in
        checkb "seed in key" true
          (k <> Campaign.checkpoint_key (config 600 2) fpva ~vectors);
        checkb "trials in key" true
          (k <> Campaign.checkpoint_key (config 500 1) fpva ~vectors));
    case "the key texts of the paper 10x10 default suite are pinned"
      (fun () ->
        (* Journals written before this digest keep resuming only while
           these texts stay byte-identical. *)
        let t = Layouts.paper_array 10 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let digest key = Digest.to_hex (Digest.string key) in
        check Alcotest.string "campaign" "21fcd65057614d21cd4a6c18c3cd9b24"
          (digest (Campaign.checkpoint_key Campaign.default_config t ~vectors));
        check Alcotest.string "noisy campaign"
          "0892c519cc5f30fb7a1b5d1f944a5ca8"
          (digest
             (Campaign.noisy_checkpoint_key Campaign.default_noise_config t
                ~vectors));
        check Alcotest.string "diagnosis" "d1aa177251aa73a13d66bd7d3cedb48e"
          (digest
             (Diagnosis.checkpoint_key t ~vectors
                ~faults:(Diagnosis.single_faults t))));
    case "an equal suite shares the key, a different suite or layout not"
      (fun () ->
        (* The suite digest is remembered by the identity of the list and
           of the layout's compilation: an equal suite in a fresh list
           must still get the key its text gives, and neither a shorter
           suite nor a mutated layout may get a remembered one. *)
        let fpva = Fpva.copy (Lazy.force six) and vectors = Lazy.force suite in
        let key vectors = Campaign.checkpoint_key (config 600 1) fpva ~vectors in
        let k = key vectors in
        let fresh = (Pipeline.run_exn fpva).Pipeline.vectors in
        checkb "a fresh list" true (fresh != vectors);
        check Alcotest.string "equal suite, fresh list" k (key fresh);
        checkb "shorter suite" true (k <> key (List.tl vectors));
        check Alcotest.string "equal suite again" k (key vectors);
        Fpva.set_edge fpva (Fpva.edge_of_valve fpva 0) Fpva.Open_channel;
        checkb "mutated layout" true (k <> key vectors));
    case "ENOSPC mid-run degrades checkpointing, not the campaign"
      (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let config = config 600 17 in
        let key = Campaign.checkpoint_key config fpva ~vectors in
        let cold = rendered (Campaign.run ~config fpva ~vectors) in
        with_tmp (fun path ->
            let ck =
              open_ok
                ~wrap_io:(Chaos.Io.wrap [ Chaos.Io.Enospc_after 600 ])
                ~path ~resume:false ~key ()
            in
            let r = Campaign.run ~config ~checkpoint:ck fpva ~vectors in
            checkb "rows still correct" true (rendered r = cold);
            checkb "failure recorded" true (Checkpoint.failure ck <> None);
            Checkpoint.close ck));
    case "checkpoint.shards_skipped ticks on resume (trace counters)"
      (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let config = config 600 23 in
        let key = Campaign.checkpoint_key config fpva ~vectors in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            ignore (Campaign.run ~config ~checkpoint:ck fpva ~vectors);
            Checkpoint.close ck;
            Trace.enable ();
            Fun.protect ~finally:Trace.disable (fun () ->
                let before =
                  Option.value ~default:0
                    (List.assoc_opt "checkpoint.shards_skipped"
                       (Trace.counters ()))
                in
                let ck = open_ok ~path ~resume:true ~key () in
                ignore (Campaign.run ~config ~checkpoint:ck fpva ~vectors);
                Checkpoint.close ck;
                let after =
                  Option.value ~default:0
                    (List.assoc_opt "checkpoint.shards_skipped"
                       (Trace.counters ()))
                in
                checkb "counter grew" true (after > before))));
  ]

(* ---------- noisy campaigns and diagnosis ---------- *)

(* The wall-clock line is not reproducible: two runs straddling 0.05 s
   print different [wall=] values, so it is zeroed like in every other
   rendered comparison. *)
let noisy_render r =
  Format.asprintf "%a" Campaign.pp_noise_result
    { r with Campaign.n_wall_seconds = 0.0 }

let other_engines_tests =
  [
    case "noisy campaign resumes bit-identically after truncation"
      (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let config =
          { Campaign.base = config 300 5; noise_levels = [ 0.02 ];
            repeats = 3 }
        in
        let key = Campaign.noisy_checkpoint_key config fpva ~vectors in
        let cold = noisy_render (Campaign.run_noisy ~config fpva ~vectors) in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            ignore (Campaign.run_noisy ~config ~checkpoint:ck fpva ~vectors);
            Checkpoint.close ck;
            truncate_file path (file_size path * 2 / 3);
            let ck = open_ok ~path ~resume:true ~key () in
            let r = Campaign.run_noisy ~config ~jobs:4 ~checkpoint:ck fpva ~vectors in
            checkb "resumed mid-way" true (Checkpoint.resumed_shards ck > 0);
            Checkpoint.close ck;
            checkb "identical" true (noisy_render r = cold)));
    case "diagnosis dictionary resumes bit-identically after truncation"
      (fun () ->
        let fpva = Lazy.force six and vectors = Lazy.force suite in
        let faults = Diagnosis.single_faults fpva in
        let key = Diagnosis.checkpoint_key fpva ~vectors ~faults in
        let fingerprint dict =
          ( Diagnosis.resolution dict,
            List.map
              (List.map Fpva_sim.Fault.to_string)
              (Diagnosis.equivalence_classes dict) )
        in
        let cold = fingerprint (Diagnosis.build fpva ~vectors ~faults) in
        with_tmp (fun path ->
            let ck = open_ok ~path ~resume:false ~key () in
            ignore (Diagnosis.build ~checkpoint:ck fpva ~vectors ~faults);
            Checkpoint.close ck;
            truncate_file path (file_size path / 2);
            let ck = open_ok ~path ~resume:true ~key () in
            let dict =
              Diagnosis.build ~jobs:4 ~checkpoint:ck fpva ~vectors ~faults
            in
            checkb "resumed mid-way" true (Checkpoint.resumed_shards ck > 0);
            Checkpoint.close ck;
            checkb "identical" true (fingerprint dict = cold)));
  ]

let tests = property_tests @ contract_tests @ other_engines_tests
