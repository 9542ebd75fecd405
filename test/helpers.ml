(* Shared helpers for the test suites. *)

open Fpva_grid

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A deterministic pseudo-random small layout: full grid with a few
   obstacles and open-channel sites.  Mutations are applied to a copy and
   kept only when the layout stays valid, so the result always passes
   [Fpva.validate]. *)
let random_layout rng =
  let module R = Fpva_util.Rng in
  let rows = 3 + R.int rng 4 and cols = 3 + R.int rng 4 in
  let base = Fpva.create ~rows ~cols in
  Fpva.add_port base
    { Fpva.side = Coord.West; offset = R.int rng rows; kind = Fpva.Source };
  Fpva.add_port base
    { Fpva.side = Coord.East; offset = R.int rng rows; kind = Fpva.Sink };
  let current = ref base in
  let mutations = R.int rng 4 in
  for _ = 1 to mutations do
    let candidate = Fpva.copy !current in
    (if R.bool rng then begin
       let r = R.int rng rows and c = R.int rng (cols - 1) in
       let e = Coord.E (Coord.cell r c) in
       let a, b = Coord.edge_endpoints e in
       if Fpva.cell_state candidate a = Fpva.Fluid
          && Fpva.cell_state candidate b = Fpva.Fluid
       then Fpva.set_edge candidate e Fpva.Open_channel
     end
     else begin
       let r = R.int rng rows and c = R.int rng cols in
       let cell = Coord.cell r c in
       let is_port_cell =
         Array.exists
           (fun p -> Fpva.port_cell candidate p = cell)
           (Fpva.ports candidate)
       in
       if not is_port_cell then Fpva.set_obstacle candidate cell
     end);
    match Fpva.validate candidate with
    | Ok () -> current := candidate
    | Error _ -> ()
  done;
  !current

(* A 3x3 layout whose west source sits against an obstacle cell (1,0): the
   'S' at line 4, column 1.  Invalid input, never a crash. *)
let port_on_obstacle_text =
  String.concat "\n"
    [ "#######"; "# | | #"; "#-+-+-#"; "S#| | M"; "#-+-+-#"; "# | | #";
      "#######" ]

let layout_gen =
  QCheck2.Gen.map
    (fun seed -> random_layout (Fpva_util.Rng.create seed))
    QCheck2.Gen.(int_bound 1_000_000)

(* Layout property with an actionable counterexample: on failure qcheck
   prints the generator seed and the rendered layout. *)
let qcheck_layout ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name
       ~print:(fun seed ->
         let t = random_layout (Fpva_util.Rng.create seed) in
         Printf.sprintf "seed %d\n%s" seed (Render.plain t))
       QCheck2.Gen.(int_bound 1_000_000)
       (fun seed -> prop (random_layout (Fpva_util.Rng.create seed))))

(* The paper 20x20 and its default suite, generated once for every suite
   that needs them: the layout and suite of the paper's fault study. *)
let paper20 =
  lazy
    (let t = Layouts.paper_array 20 in
     (t, (Fpva_testgen.Pipeline.run_exn t).Fpva_testgen.Pipeline.vectors))

let small_full_layout rows cols =
  let t = Fpva.create ~rows ~cols in
  Fpva.add_port t
    { Fpva.side = Coord.West; offset = rows / 2; kind = Fpva.Source };
  Fpva.add_port t
    { Fpva.side = Coord.East; offset = rows / 2; kind = Fpva.Sink };
  t
