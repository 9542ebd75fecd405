(* Tests for the ASCII layout parser. *)

open Helpers
open Fpva_grid

let roundtrip t =
  match Parse.parse (Render.plain t) with
  | Ok t' -> Render.plain t' = Render.plain t
  | Error _ -> false

let tests =
  [
    case "parses a hand-written layout" (fun () ->
        let text =
          String.concat "\n"
            [ "#####M#";
              "# | | #";
              "#-+ +-#";
              "S | X #";
              "#-+-+-#";
              "##X | #";
              "#######" ]
        in
        match Parse.parse text with
        | Ok t ->
          checki "rows" 3 (Fpva.rows t);
          checki "cols" 3 (Fpva.cols t);
          checkb "open channel" true
            (Fpva.edge_state t (Coord.S (Coord.cell 0 1)) = Fpva.Open_channel);
          checkb "wall" true
            (Fpva.edge_state t (Coord.E (Coord.cell 1 1)) = Fpva.Wall);
          checkb "obstacle" true
            (Fpva.cell_state t (Coord.cell 2 0) = Fpva.Obstacle);
          checki "ports" 2 (Array.length (Fpva.ports t));
          checkb "source west" true
            (Array.exists
               (fun p ->
                 p.Fpva.kind = Fpva.Source && p.Fpva.side = Coord.West
                 && p.Fpva.offset = 1)
               (Fpva.ports t));
          checkb "sink north" true
            (Array.exists
               (fun p ->
                 p.Fpva.kind = Fpva.Sink && p.Fpva.side = Coord.North
                 && p.Fpva.offset = 2)
               (Fpva.ports t))
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    case "round-trips the paper layouts" (fun () ->
        List.iter
          (fun (label, t) -> checkb label true (roundtrip t))
          Layouts.paper_suite);
    case "round-trips figure9 (channels + obstacles)" (fun () ->
        checkb "figure9" true (roundtrip (Layouts.figure9 ())));
    case "rejects even dimensions" (fun () ->
        checkb "even height" true
          (match Parse.parse "###\n# #\n###\n# #" with
          | Error _ -> true
          | Ok _ -> false));
    case "rejects ragged lines" (fun () ->
        checkb "ragged" true
          (match Parse.parse "#####\n# | #\n####" with
          | Error _ -> true
          | Ok _ -> false));
    case "rejects bad cell characters" (fun () ->
        let text = "###\n#?#\n###" in
        match Parse.parse text with
        | Error msg ->
          checkb "mentions location" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.fail "accepted bad char");
    case "rejects a port against an obstacle at its line and column"
      (fun () ->
        match Parse.parse port_on_obstacle_text with
        | Error msg ->
          check Alcotest.string "message"
            "line 4, col 1: port 'S' against an obstacle cell" msg
        | Ok _ -> Alcotest.fail "accepted a port against an obstacle");
    case "parse_exn raises on bad input" (fun () ->
        checkb "raises" true
          (try
             ignore (Parse.parse_exn "##\n##");
             false
           with Invalid_argument _ -> true));
    qcheck_layout ~count:40 "round-trips random layouts" (fun t ->
        roundtrip t);
    qcheck_layout ~count:30 "parsed layouts validate like their source"
      (fun t ->
        match Parse.parse (Render.plain t) with
        | Ok t' -> Fpva.validate t' = Fpva.validate t
        | Error _ -> false);
  ]
