(* Hexadecimal digits of pi via the Bailey-Borwein-Plouffe formula: an
   independent derivation of the table in [Apps.Pi_digits].

   We evaluate the BBP fraction at positions 0, 8, 16, ... and take
   eight hex digits (one 32-bit word) per evaluation - the standard
   double-precision usage, which is accurate well past the 8-digit
   window we consume. Word w costs O(w log w), so all 1,042 words take
   a few seconds. *)

let modpow b e m =
  (* m <= 8*8500 + 6 < 2^17, so products fit comfortably in 63 bits *)
  let rec go b e acc =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then acc * b mod m else acc in
      go (b * b mod m) (e lsr 1) acc
  in
  if m = 1 then 0 else go (b mod m) e 1

(* Fractional part of sum_k 16^(d-k)/(8k+j). *)
let series j d =
  let acc = ref 0.0 in
  for k = 0 to d do
    let m = (8 * k) + j in
    acc := !acc +. (float_of_int (modpow 16 (d - k) m) /. float_of_int m);
    acc := !acc -. Float.of_int (int_of_float !acc)
  done;
  let t = ref (1.0 /. 16.0) in
  for k = d + 1 to d + 16 do
    acc := !acc +. (!t /. float_of_int ((8 * k) + j));
    t := !t /. 16.0
  done;
  !acc -. Float.of_int (int_of_float !acc)

(* The 32-bit word formed by hex digits [8w+1 .. 8w+8] of pi's
   fractional part (digit 1 is the first digit after the point). *)
let word w =
  let d = 8 * w in
  let x =
    (4.0 *. series 1 d) -. (2.0 *. series 4 d) -. series 5 d -. series 6 d
  in
  let frac = x -. Float.of_int (int_of_float (Float.floor x)) in
  let frac = if frac < 0.0 then frac +. 1.0 else frac in
  let v = ref 0 in
  let f = ref frac in
  for _ = 1 to 8 do
    f := !f *. 16.0;
    let digit = int_of_float !f in
    f := !f -. float_of_int digit;
    v := (!v lsl 4) lor (digit land 15)
  done;
  !v
