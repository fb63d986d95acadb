(* 63 buckets cover every non-negative OCaml int: bucket i holds values in
   [2^i, 2^(i+1)), with 0 and 1 both landing in bucket 0. *)
let nbuckets = 63

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () = { buckets = Array.make nbuckets 0; count = 0; sum = 0; min = max_int; max = 0 }

let bucket_of v =
  if v <= 1 then 0
  else begin
    let i = ref 0 in
    let v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      incr i
    done;
    !i
  end

let bucket_lower i = if i = 0 then 0 else 1 lsl i
let bucket_upper i = (1 lsl (i + 1)) - 1

let observe t v =
  let v = max v 0 in
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min
let max_value t = t.max
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Approximate: walks the cumulative bucket counts and reports the bucket's
   upper bound, clamped to the observed extrema.  Exact percentiles over raw
   samples live in Util.Stats.percentile; the histogram trades that
   precision for O(1) memory. *)
let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p outside [0, 100]";
  (* Same contract as Util.Stats.percentile: a percentile of nothing is a
     programming error, not 0. *)
  if t.count = 0 then invalid_arg "Histogram.percentile: empty histogram"
  else begin
    let rank = p /. 100.0 *. float_of_int t.count in
    let acc = ref 0 in
    let result = ref t.max in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + t.buckets.(i);
         if float_of_int !acc >= rank && t.buckets.(i) > 0 then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    float_of_int (Stdlib.min t.max (Stdlib.max t.min !result))
  end

let nonempty_buckets t =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then out := (bucket_lower i, bucket_upper i, t.buckets.(i)) :: !out
  done;
  !out

let to_json t =
  let open Util.Json in
  let pct p = if t.count = 0 then Null else Float (percentile t p) in
  Obj
    [
      ("count", Int t.count);
      ("sum", Int t.sum);
      ("min", Int (min_value t));
      ("max", Int t.max);
      ("mean", Float (mean t));
      ("p50", pct 50.0);
      ("p90", pct 90.0);
      ("p99", pct 99.0);
      ( "buckets",
        List
          (List.map
             (fun (lo, hi, n) -> Obj [ ("lo", Int lo); ("hi", Int hi); ("count", Int n) ])
             (nonempty_buckets t)) );
    ]
