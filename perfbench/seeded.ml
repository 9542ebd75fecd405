(* Seeded Table I layouts.  At the reference seed these are exactly
   [Layouts.paper_array]; any other seed moves the single open-channel site
   of every complete 5x5 subblock to a seeded position inside the block.
   The valve count stays 2n(n-1) - (n/5)^2, so every seed yields a held-out
   layout of the same class. *)

open Fpva_grid

let reference = 0

let paper_array ~seed n =
  if seed = reference then Layouts.paper_array n
  else begin
    let t = Fpva.create ~rows:n ~cols:n in
    let rng = Fpva_util.Rng.derive seed n in
    for bi = 0 to (n / 5) - 1 do
      for bj = 0 to (n / 5) - 1 do
        let r = Fpva_util.Rng.int rng 5 and c = Fpva_util.Rng.int rng 4 in
        Fpva.set_edge t
          (Coord.E (Coord.cell ((bi * 5) + r) ((bj * 5) + c)))
          Fpva.Open_channel
      done
    done;
    Layouts.with_default_ports t
  end
