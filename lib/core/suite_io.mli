(** Suite serialisation — a documented text format for test vectors.

    A generated suite ultimately drives a physical tester (pressure source,
    valve controller, meters); this format carries everything the
    instrument and later re-analysis need: per-vector valve states, golden
    responses, and the generating structure (path / cut / pierced target)
    so vectors can be re-validated against the architecture on import.

    Format (line-oriented, ['#'] comments allowed):

    {v
    fpva-suite 1
    rows 10
    cols 10
    valves 176
    ports 2
    vector flow-0
    kind flow 0 1            # kind, source port, sink port
    cells (5,0);(5,1);(4,1)  # generating structure
    states 0110...           # one char per valve id, 1 = open
    golden 01                # one char per port, 1 = pressure expected
    end
    v}

    [kind] lines: [flow s t], [leak s t], [pierced s t v] (followed by a
    [cells] line) or [cut] (followed by a [cut] line listing valve ids). *)

open Fpva_grid

val to_string : Fpva.t -> Test_vector.t list -> string

val digest : Fpva.t -> Test_vector.t list -> string * string
(** [(layout, suite)]: the hex MD5 of [Render.plain fpva] and of
    [to_string fpva vectors], the digests every checkpoint key pins.  The
    last suite digested is remembered, keyed by the physical identity of
    the layout's current compilation ({!Fpva_grid.Compiled.get}) and of
    the vector list, so repeated keys for one suite render it once. *)

val write_file : string -> Fpva.t -> Test_vector.t list -> unit

val of_string : Fpva.t -> string -> (Test_vector.t list, string) result
(** Parse and re-validate against the given architecture: dimensions and
    counts must match, every vector must be [Test_vector.well_formed], and
    the recorded states/golden must agree with the regenerated structure.
    Errors carry a line number. *)

val read_file : string -> Fpva.t -> (Test_vector.t list, string) result
