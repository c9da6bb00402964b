(* Signal-to-noise ratio with an explicit reference signal, used for
   MPEG frame quality and GSM decoded speech (paper Table 1). *)

let cap_db = 99.0

(* SNR in dB of [signal] against [reference]: power of the reference
   over power of the deviation. *)
let snr_db (reference : int array) (signal : int array) =
  if Array.length reference <> Array.length signal then
    invalid_arg "snr: length mismatch";
  let sig_pow = ref 0.0 and noise_pow = ref 0.0 in
  Array.iteri
    (fun i r ->
      let rf = float_of_int r in
      let d = float_of_int (signal.(i) - r) in
      sig_pow := !sig_pow +. (rf *. rf);
      noise_pow := !noise_pow +. (d *. d))
    reference;
  if !noise_pow = 0.0 then cap_db
  else if !sig_pow = 0.0 then 0.0
  else Float.min (10.0 *. log10 (!sig_pow /. !noise_pow)) cap_db

(* dB lost relative to a baseline SNR (e.g. MPEG's per-frame quality
   drop against the fault-free reconstruction). *)
let loss_db ~baseline_db ~observed_db = baseline_db -. observed_db
