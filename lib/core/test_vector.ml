open Fpva_grid

type kind =
  | Flow of Flow_path.t
  | Cut of Cut_set.t
  | Leak of Flow_path.t
  | Pierced of Flow_path.t * int

type t = {
  label : string;
  kind : kind;
  open_valves : bool array;
  golden : bool array;
  region : string;
}

let golden_response fpva ~open_valves =
  (* The CSR arc slots carry valve ids directly, so the state array is the
     passability predicate — no edge-to-id lookups on the hot path. *)
  let comp = Compiled.get fpva in
  Compiled.with_scratch comp (fun s ->
      Graph.pressurized_sinks_c comp s ~open_valve:(fun vid ->
          open_valves.(vid)))

(* One fault-free sweep gives both the golden response and the region. *)
let make ~label kind fpva ~open_valves =
  let comp = Compiled.get fpva in
  let golden = Array.make (Compiled.num_ports comp) false in
  let region =
    Compiled.with_scratch comp (fun s ->
        Graph.pressurized_region comp s
          ~open_valve:(fun vid -> open_valves.(vid))
          ~into:golden)
  in
  { label; kind; open_valves; golden; region }

let states_of_open_list fpva valve_ids =
  let states = Array.make (Fpva.num_valves fpva) false in
  List.iter (fun v -> states.(v) <- true) valve_ids;
  states

let states_of_closed_list fpva valve_ids =
  let states = Array.make (Fpva.num_valves fpva) true in
  List.iter (fun v -> states.(v) <- false) valve_ids;
  states

let of_flow_path ?label fpva (path : Flow_path.t) =
  let open_valves = states_of_open_list fpva path.Flow_path.valve_ids in
  let label = Option.value label ~default:"flow" in
  make ~label (Flow path) fpva ~open_valves

let of_cut_set ?label fpva (cut : Cut_set.t) =
  let open_valves = states_of_closed_list fpva cut.Cut_set.valve_ids in
  let label = Option.value label ~default:"cut" in
  make ~label (Cut cut) fpva ~open_valves

let of_leak_path ?label fpva (path : Flow_path.t) =
  let open_valves = states_of_open_list fpva path.Flow_path.valve_ids in
  let label = Option.value label ~default:"leak" in
  make ~label (Leak path) fpva ~open_valves

let of_pierced_path ?label fpva (path : Flow_path.t) v =
  if not (List.mem v path.Flow_path.valve_ids) then
    invalid_arg "Test_vector.of_pierced_path: valve not on path";
  let open_valves = states_of_open_list fpva path.Flow_path.valve_ids in
  open_valves.(v) <- false;
  let label = Option.value label ~default:(Printf.sprintf "pierced-%d" v) in
  make ~label (Pierced (path, v)) fpva ~open_valves

let open_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.open_valves

let well_formed fpva t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nv = Fpva.num_valves fpva in
  let nports = Array.length (Fpva.ports fpva) in
  if Array.length t.open_valves <> nv then fail "open_valves arity"
  else if Array.length t.golden <> nports then fail "golden arity"
  else begin
    let expect_exact ids value =
      let want = Array.make nv (not value) in
      List.iter (fun v -> want.(v) <- value) ids;
      if want = t.open_valves then Ok () else fail "valve states mismatch"
    in
    match t.kind with
    | Flow path | Leak path ->
      (match expect_exact path.Flow_path.valve_ids true with
      | Error _ as e -> e
      | Ok () ->
        if t.golden.(path.Flow_path.sink) then Ok ()
        else fail "flow vector: golden shows no pressure at path sink")
    | Pierced (path, v) ->
      let opened = List.filter (fun x -> x <> v) path.Flow_path.valve_ids in
      (match expect_exact opened true with
      | Error _ as e -> e
      | Ok () ->
        if t.golden.(path.Flow_path.sink) then
          fail "pierced vector: sink still pressurised (path not sound)"
        else Ok ())
    | Cut cut ->
      (match expect_exact cut.Cut_set.valve_ids false with
      | Error _ as e -> e
      | Ok () ->
        let leaky = ref None in
        Array.iteri
          (fun i p ->
            if p.Fpva.kind = Fpva.Sink && t.golden.(i) then leaky := Some i)
          (Fpva.ports fpva);
        (match !leaky with
        | Some i -> fail "cut vector: golden shows pressure at sink %d" i
        | None -> Ok ()))
  end

let pp ppf t =
  let kind =
    match t.kind with
    | Flow _ -> "flow"
    | Cut _ -> "cut"
    | Leak _ -> "leak"
    | Pierced _ -> "pierced"
  in
  Format.fprintf ppf "%s[%s] open=%d golden=[" t.label kind (open_count t);
  Array.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) t.golden;
  Format.fprintf ppf "]"
