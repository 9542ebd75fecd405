(* Aggregates all suites; run with `dune runtest`. *)

(* Pin the property-test seed unless the caller overrides it: the
   engine-agreement properties compare two randomised searches, and a fixed
   seed keeps CI deterministic. *)
let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260705"

let () =
  Alcotest.run "fpva"
    [
      ("util", Suite_util.tests);
      ("milp", Suite_milp.tests);
      ("grid", Suite_grid.tests);
      ("compiled", Suite_compiled.tests);
      ("pathgen", Suite_pathgen.tests);
      ("flow", Suite_flow.tests);
      ("cut", Suite_cut.tests);
      ("hierarchy", Suite_hierarchy.tests);
      ("leakage", Suite_leakage.tests);
      ("vectors", Suite_vectors.tests);
      ("sim", Suite_sim.tests);
      ("parse", Suite_parse.tests);
      ("extensions", Suite_extensions.tests);
      ("io-compact", Suite_io_compact.tests);
      ("robustness", Suite_robustness.tests);
      ("journal", Suite_journal.tests);
      ("checkpoint", Suite_checkpoint.tests);
      ("noise", Suite_noise.tests);
      ("parallel", Suite_parallel.tests);
      ("trace", Suite_trace.tests);
      ("sequential", Suite_sequential.tests);
      ("serve", Suite_serve.tests);
      ("properties", Suite_props.tests);
    ]
