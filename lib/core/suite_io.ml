open Fpva_grid

(* The writers below go straight into the one buffer: a number is written
   digit by digit, a bit string char by char, so the text costs no
   intermediate strings. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.chr (48 + (n mod 10)))
  end

let add_bits buf key a =
  Buffer.add_string buf key;
  for i = 0 to Array.length a - 1 do
    Buffer.add_char buf (if Array.unsafe_get a i then '1' else '0')
  done;
  Buffer.add_char buf '\n'

(* [kind <name> <source> <sink>], then the pierced valve if any, then the
   [cells] line. *)
let add_path buf name ?target (p : Flow_path.t) =
  Buffer.add_string buf "kind ";
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  add_int buf p.Flow_path.source;
  Buffer.add_char buf ' ';
  add_int buf p.Flow_path.sink;
  Option.iter
    (fun v ->
      Buffer.add_char buf ' ';
      add_int buf v)
    target;
  Buffer.add_string buf "\ncells ";
  List.iteri
    (fun i (c : Coord.cell) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_char buf '(';
      add_int buf c.Coord.row;
      Buffer.add_char buf ',';
      add_int buf c.Coord.col;
      Buffer.add_char buf ')')
    p.Flow_path.cells;
  Buffer.add_char buf '\n'

let to_string fpva vectors =
  let buf = Buffer.create 4096 in
  let header key n =
    Buffer.add_string buf key;
    add_int buf n;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "fpva-suite 1\n";
  header "rows " (Fpva.rows fpva);
  header "cols " (Fpva.cols fpva);
  header "valves " (Fpva.num_valves fpva);
  header "ports " (Array.length (Fpva.ports fpva));
  List.iter
    (fun (v : Test_vector.t) ->
      Buffer.add_string buf "vector ";
      Buffer.add_string buf v.Test_vector.label;
      Buffer.add_char buf '\n';
      (match v.Test_vector.kind with
      | Test_vector.Flow p -> add_path buf "flow" p
      | Test_vector.Leak p -> add_path buf "leak" p
      | Test_vector.Pierced (p, target) -> add_path buf "pierced" ~target p
      | Test_vector.Cut c ->
        Buffer.add_string buf "kind cut\ncut ";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ';';
            add_int buf v)
          c.Cut_set.valve_ids;
        Buffer.add_char buf '\n');
      add_bits buf "states " v.Test_vector.open_valves;
      add_bits buf "golden " v.Test_vector.golden;
      Buffer.add_string buf "end\n")
    vectors;
  Buffer.contents buf

(* The last suite digested, keyed by the physical identity of its
   compilation and of its vector list: [Compiled.get] returns a new
   compilation after every layout mutation, and a list and its vectors
   never change once built. *)
let last_digest :
    (Compiled.t * Test_vector.t list * (string * string)) option Atomic.t =
  Atomic.make None

let digest fpva vectors =
  let comp = Compiled.get fpva in
  match Atomic.get last_digest with
  | Some (c, vs, d) when c == comp && vs == vectors -> d
  | Some _ | None ->
    let hex text = Digest.to_hex (Digest.string text) in
    let d = (hex (Render.plain fpva), hex (to_string fpva vectors)) in
    Atomic.set last_digest (Some (comp, vectors, d));
    d

let write_file path fpva vectors =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string fpva vectors))

(* ---------- parsing ---------- *)

(* [body] is the comment-stripped, trimmed text of the line: every branch
   below — including the payload slice in the [cells] branch — must work
   from it, never from the raw line, or a trailing [# comment] leaks into
   the payload. *)
type line = { num : int; words : string list; body : string }

let tokenize text =
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> (i + 1, raw))
  |> List.filter_map (fun (num, raw) ->
         let body =
           String.trim
             (match String.index_opt raw '#' with
             | Some k -> String.sub raw 0 k
             | None -> raw)
         in
         let words =
           String.split_on_char ' ' body |> List.filter (fun w -> w <> "")
         in
         if words = [] then None else Some { num; words; body })

let fail num fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" num s)) fmt

let int_word num what w =
  match int_of_string_opt w with
  | Some v -> Ok v
  | None -> fail num "bad %s %S" what w

let port_word fpva num what w =
  let ( let* ) = Result.bind in
  let* p = int_word num what w in
  let nports = Array.length (Fpva.ports fpva) in
  if p < 0 || p >= nports then
    fail num "%s %d out of range (architecture has %d ports)" what p nports
  else Ok p

let valve_word fpva num what w =
  let ( let* ) = Result.bind in
  let* v = int_word num what w in
  let nv = Fpva.num_valves fpva in
  if v < 0 || v >= nv then
    fail num "%s %d out of range (architecture has %d valves)" what v nv
  else Ok v

let parse_cells num s =
  let parts = String.split_on_char ';' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
      match Scanf.sscanf_opt part "(%d,%d)" (fun r c -> Coord.cell r c) with
      | Some cell -> go (cell :: acc) rest
      | None -> fail num "bad cell %S" part)
  in
  go [] parts

let bools_of_bits num s =
  let ok = ref true in
  String.iter (fun ch -> if ch <> '0' && ch <> '1' then ok := false) s;
  if not !ok then fail num "bad bitstring"
  else Ok (Array.init (String.length s) (fun i -> s.[i] = '1'))

let path_of_cells fpva num ~source ~sink cells =
  match Flow_path.of_cells fpva ~source ~sink cells with
  | path -> Ok path
  | exception Invalid_argument _ -> fail num "cells are not a contiguous route"

let of_string fpva text =
  let ( let* ) = Result.bind in
  let lines = tokenize text in
  match lines with
  | { words = [ "fpva-suite"; "1" ]; _ } :: rest ->
    let expect_header name value = function
      | { num; words = [ key; v ]; _ } when key = name ->
        if int_of_string_opt v = Some value then Ok ()
        else fail num "%s mismatch: file says %s, architecture has %d" name v value
      | { num; _ } -> fail num "expected '%s <n>'" name
    in
    (match rest with
    | r :: c :: va :: po :: body ->
      let* () = expect_header "rows" (Fpva.rows fpva) r in
      let* () = expect_header "cols" (Fpva.cols fpva) c in
      let* () = expect_header "valves" (Fpva.num_valves fpva) va in
      let* () = expect_header "ports" (Array.length (Fpva.ports fpva)) po in
      let rec vectors acc = function
        | [] -> Ok (List.rev acc)
        | { num; words = "vector" :: label_words; _ } :: rest ->
          let label = String.concat " " label_words in
          parse_vector acc num label rest
        | { num; _ } :: _ -> fail num "expected 'vector <label>'"
      and parse_vector acc vnum label body =
        let* kind, body =
          match body with
          | { num; words = [ "kind"; "flow"; s; t ]; _ } :: rest ->
            let* s = port_word fpva num "source port" s in
            let* t = port_word fpva num "sink port" t in
            Ok (`Path (`Flow, s, t), rest)
          | { num; words = [ "kind"; "leak"; s; t ]; _ } :: rest ->
            let* s = port_word fpva num "source port" s in
            let* t = port_word fpva num "sink port" t in
            Ok (`Path (`Leak, s, t), rest)
          | { num; words = [ "kind"; "pierced"; s; t; v ]; _ } :: rest ->
            let* s = port_word fpva num "source port" s in
            let* t = port_word fpva num "sink port" t in
            let* v = valve_word fpva num "pierced valve" v in
            Ok (`Path (`Pierced v, s, t), rest)
          | { words = [ "kind"; "cut" ]; _ } :: rest -> Ok (`Cut, rest)
          | _ ->
            let num = match body with { num; _ } :: _ -> num | [] -> vnum in
            fail num "expected a 'kind' line"
        in
        let* structure, body =
          match (kind, body) with
          | `Path (style, s, t), { num; words = "cells" :: _; body } :: rest ->
            let payload =
              String.trim (String.sub body 5 (String.length body - 5))
            in
            let* cells = parse_cells num payload in
            let* path = path_of_cells fpva num ~source:s ~sink:t cells in
            Ok (`Path (style, path), rest)
          | `Cut, { num; words = "cut" :: ids; _ } :: rest ->
            (* Ids in file order, which is the cut's own order. *)
            let* rev_ids =
              List.concat_map (String.split_on_char ';') ids
              |> List.filter (fun x -> x <> "")
              |> List.fold_left
                   (fun acc x ->
                     let* acc = acc in
                     let* v = valve_word fpva num "valve id" x in
                     Ok (v :: acc))
                   (Ok [])
            in
            let valve_ids = List.rev rev_ids in
            let valves = List.map (Fpva.edge_of_valve fpva) valve_ids in
            Ok (`Cut { Cut_set.valves; valve_ids; corners = [] }, rest)
          | _, { num; _ } :: _ -> fail num "structure line does not match kind"
          | _, [] -> fail vnum "truncated vector"
        in
        let* states, body =
          match body with
          | { num; words = [ "states"; bits ]; _ } :: rest ->
            let* b = bools_of_bits num bits in
            Ok (b, rest)
          | { num; _ } :: _ -> fail num "expected 'states <bits>'"
          | [] -> fail vnum "truncated vector"
        in
        let* golden, body =
          match body with
          | { num; words = [ "golden"; bits ]; _ } :: rest ->
            let* b = bools_of_bits num bits in
            Ok (b, rest)
          | { num; _ } :: _ -> fail num "expected 'golden <bits>'"
          | [] -> fail vnum "truncated vector"
        in
        let* body =
          match body with
          | { words = [ "end" ]; _ } :: rest -> Ok rest
          | { num; _ } :: _ -> fail num "expected 'end'"
          | [] -> fail vnum "missing 'end'"
        in
        (* Belt and braces: the range checks above should make regeneration
           total, but a parser must never raise on untrusted input, so any
           stray exception from the constructors becomes an [Error]. *)
        let* vector =
          match
            match structure with
            | `Path (`Flow, path) -> Test_vector.of_flow_path ~label fpva path
            | `Path (`Leak, path) -> Test_vector.of_leak_path ~label fpva path
            | `Path (`Pierced v, path) ->
              Test_vector.of_pierced_path ~label fpva path v
            | `Cut cut -> Test_vector.of_cut_set ~label fpva cut
          with
          | v -> Ok v
          | exception e ->
            fail vnum "cannot regenerate vector: %s" (Printexc.to_string e)
        in
        if vector.Test_vector.open_valves <> states then
          fail vnum "states do not match the regenerated structure"
        else if vector.Test_vector.golden <> golden then
          fail vnum "golden response does not match the architecture"
        else begin
          match
            try Test_vector.well_formed fpva vector
            with e -> Error (Printexc.to_string e)
          with
          | Ok () -> vectors (vector :: acc) body
          | Error msg -> fail vnum "malformed vector: %s" msg
        end
      in
      vectors [] body
    | _ -> Error "truncated header")
  | { num; _ } :: _ -> fail num "expected 'fpva-suite 1'"
  | [] -> Error "empty suite"

let read_file path fpva =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string fpva text
