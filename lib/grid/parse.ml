
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let split_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         (* allow trailing whitespace *)
         let rec rstrip i =
           if i > 0 && (l.[i - 1] = ' ' || l.[i - 1] = '\r') then rstrip (i - 1)
           else i
         in
         String.sub l 0 (rstrip (String.length l)))

let parse text =
  let lines = Array.of_list (split_lines text) in
  let h = Array.length lines in
  if h < 3 then fail "layout needs at least 3 lines"
  else if h mod 2 = 0 then fail "layout height must be odd (2*rows+1)"
  else begin
    let w = String.length lines.(0) in
    if w < 3 || w mod 2 = 0 then
      fail "layout width must be odd (2*cols+1) and at least 3"
    else begin
      let bad_width = ref None in
      Array.iteri
        (fun i l ->
          if String.length l <> w && !bad_width = None then bad_width := Some i)
        lines;
      match !bad_width with
      | Some i -> fail "line %d has a different width" (i + 1)
      | None ->
        let rows = (h - 1) / 2 and cols = (w - 1) / 2 in
        let t = Fpva.create ~rows ~cols in
        let at y x = lines.(y).[x] in
        let errors = ref [] in
        let err y x fmt =
          Printf.ksprintf
            (fun s ->
              errors := Printf.sprintf "line %d, col %d: %s" (y + 1) (x + 1) s :: !errors)
            fmt
        in
        (* cells *)
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            match at ((2 * r) + 1) ((2 * c) + 1) with
            | ' ' -> ()
            | '#' -> Fpva.set_obstacle t (Coord.cell r c)
            | ch -> err ((2 * r) + 1) ((2 * c) + 1) "bad cell char %C" ch
          done
        done;
        (* internal edges; obstacle-adjacent ones stay Wall regardless *)
        let set_edge e st =
          let a, b = Coord.edge_endpoints e in
          if Fpva.cell_state t a = Fpva.Fluid && Fpva.cell_state t b = Fpva.Fluid
          then Fpva.set_edge t e st
        in
        for r = 0 to rows - 1 do
          for c = 0 to cols - 2 do
            let y = (2 * r) + 1 and x = (2 * c) + 2 in
            match at y x with
            | '|' -> set_edge (Coord.E (Coord.cell r c)) Fpva.Valve
            | ' ' -> set_edge (Coord.E (Coord.cell r c)) Fpva.Open_channel
            | 'X' -> set_edge (Coord.E (Coord.cell r c)) Fpva.Wall
            | ch -> err y x "bad vertical separator %C" ch
          done
        done;
        for r = 0 to rows - 2 do
          for c = 0 to cols - 1 do
            let y = (2 * r) + 2 and x = (2 * c) + 1 in
            match at y x with
            | '-' -> set_edge (Coord.S (Coord.cell r c)) Fpva.Valve
            | ' ' -> set_edge (Coord.S (Coord.cell r c)) Fpva.Open_channel
            | 'X' -> set_edge (Coord.S (Coord.cell r c)) Fpva.Wall
            | ch -> err y x "bad horizontal separator %C" ch
          done
        done;
        (* outline + ports *)
        let port y x side offset kind =
          let p = { Fpva.side; offset; kind } in
          if Fpva.cell_state t (Fpva.port_cell t p) = Fpva.Obstacle then
            err y x "port %C against an obstacle cell" (at y x)
          else Fpva.add_port t p
        in
        let outline y x side offset =
          match at y x with
          | '#' -> ()
          | 'S' -> port y x side offset Fpva.Source
          | 'M' -> port y x side offset Fpva.Sink
          | ch -> err y x "bad outline char %C" ch
        in
        for c = 0 to cols - 1 do
          outline 0 ((2 * c) + 1) Coord.North c;
          outline (h - 1) ((2 * c) + 1) Coord.South c
        done;
        for r = 0 to rows - 1 do
          outline ((2 * r) + 1) 0 Coord.West r;
          outline ((2 * r) + 1) (w - 1) Coord.East r
        done;
        match List.rev !errors with
        | [] -> Ok t
        | e :: _ -> Error e
    end
  end

let parse_exn text =
  match parse text with
  | Ok t -> t
  | Error msg -> invalid_arg ("Parse.parse_exn: " ^ msg)
