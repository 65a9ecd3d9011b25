(* Exact percentiles from raw samples.

   A percentile here is a sample: the nearest-rank value, the smallest
   sample with at least p% of all samples at or below it. No bucketing,
   so two runs compare on measured values, not on bucket bounds. *)

(* A growable buffer of float samples. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 4096 0.; n = 0 }

let add b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let count b = b.n

let to_array b = Array.sub b.a 0 b.n

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* How many samples lie at or below the nearest-rank [p] percentile of
   [n]: ceil(p/100 n), at least 1. The epsilon keeps 99.9% of 10000 at
   9990 despite float rounding. *)
let at_or_below n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))))

(* [rank sorted p]: nearest-rank percentile of an ascending array; [nan]
   for no samples. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then Float.nan else s.(at_or_below n p - 1)

let percentile a p = rank (sorted a) p

let median a = percentile a 50.

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. a /. float_of_int n

(* The percentile ladder the report walks. *)
let ladder = [ 50.; 90.; 99.; 99.9; 99.99; 99.999 ]

(* The highest ladder percentile with at least [beyond] samples above
   it: the deepest tail a sample count can support. [None] when even the
   median has fewer. *)
let deepest ?(beyond = 10) n =
  List.fold_left
    (fun acc p -> if n > 0 && n - at_or_below n p >= beyond then Some p else acc)
    None ladder
