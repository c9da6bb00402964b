(** The first {!count} (1,042) 32-bit words of pi's hexadecimal
    fraction, as a literal table: Blowfish's P-array (words 0-17) and
    S-boxes (words 18-1041). *)

val count : int

val words : int -> int array
(** [words n] is a fresh copy of the first [n] words, each in
    [0, 2^32). Raises [Invalid_argument] unless [0 <= n <= count]. *)
