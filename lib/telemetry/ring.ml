(* Until the ring first fills, its elements sit at [0, length) and [next =
   length]; [data] starts empty and doubles (from the first pushed value,
   which fills the new slots) until it reaches [capacity].  From then on it
   wraps, overwriting the oldest element. *)
type 'a t = {
  mutable data : 'a array;
  capacity : int;
  mutable next : int; (* slot the next push writes *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = [||]; capacity; next = 0; length = 0; dropped = 0 }

let grow t v =
  let n = Array.length t.data in
  let bigger = Array.make (min t.capacity (max 8 (2 * n))) v in
  Array.blit t.data 0 bigger 0 n;
  t.data <- bigger

let push t v =
  if t.next = Array.length t.data && t.length < t.capacity then grow t v;
  if t.length = t.capacity then t.dropped <- t.dropped + 1
  else t.length <- t.length + 1;
  t.data.(t.next) <- v;
  t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1)

let length t = t.length
let capacity t = t.capacity
let dropped t = t.dropped

(* Oldest-first: the oldest live element sits at [next] once the buffer
   has wrapped, at 0 before that. *)
let start t = if t.length = t.capacity then t.next else 0

let to_list t =
  let start = start t in
  List.init t.length (fun i -> t.data.((start + i) mod t.capacity))

let iter t f =
  let start = start t in
  for i = 0 to t.length - 1 do
    f t.data.((start + i) mod t.capacity)
  done

let clear t =
  t.data <- [||];
  t.next <- 0;
  t.length <- 0;
  t.dropped <- 0
