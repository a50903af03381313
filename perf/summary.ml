(* Median and quartiles of a sample, computed the way Python's
   [statistics.median] and [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method) compute them, so numbers printed here match the
   ones an external script derives from the same values. *)

type t = { median : float; q1 : float; q3 : float; n : int }

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median_of a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Cut point [i] of [parts] over a sorted array, exclusive method. *)
let cut a ~parts i =
  let ld = Array.length a in
  let m = ld + 1 in
  let j = max 1 (min (ld - 1) (i * m / parts)) in
  let delta = (i * m) - (j * parts) in
  ((a.(j - 1) *. float_of_int (parts - delta)) +. (a.(j) *. float_of_int delta))
  /. float_of_int parts

let of_list xs =
  let a = sorted xs in
  let n = Array.length a in
  let median = median_of a in
  if n < 2 then { median; q1 = median; q3 = median; n }
  else { median; q1 = cut a ~parts:4 1; q3 = cut a ~parts:4 3; n }

(* Inter-quartile range as a share of the median. *)
let spread t =
  if Float.equal t.median 0.0 then 0.0
  else (t.q3 -. t.q1) /. Float.abs t.median
