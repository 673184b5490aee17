(* Order statistics. *)

(** Nearest-rank percentile, [p] in (0, 100]; 0 on an empty array. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median a = percentile a 50.0
