(* The per-layer ledger of a traced pass: host seconds, minor-heap words
   and counts, accumulated from outside around the benchmark's calls into
   each layer's public functions. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  values : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  poll : unit -> unit;  (** drains the GC-pause recorder after each span *)
}

let create ?(poll = ignore) () = { values = Hashtbl.create 64; samples = Hashtbl.create 4; poll }
let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.values name)
let set t name v = Hashtbl.replace t.values name v
let add t name v = set t name (get t name +. v)
let count t name n = add t name (float_of_int n)
let peak t name v = set t name (Float.max (get t name) v)

let sample t name v =
  Hashtbl.replace t.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.samples name)

(* [span ledger layer f] runs [f]; with a ledger it adds the call's host
   seconds to [layer_s] and its minor-heap words to [layer_minor_mwords]. *)
let span ledger layer f =
  match ledger with
  | None -> f ()
  | Some t ->
    let w0 = Gc.minor_words () and t0 = now () in
    let r = f () in
    add t (layer ^ "_s") (now () -. t0);
    add t (layer ^ "_minor_mwords") ((Gc.minor_words () -. w0) /. 1e6);
    t.poll ();
    r

(* [timed ledger ~total ?each f] is [f] itself without a ledger; with one,
   every call adds its host seconds to [total] and, given [each], samples
   its microseconds there. *)
let timed ledger ~total ?each f =
  match ledger with
  | None -> f
  | Some t ->
    fun x ->
      let t0 = now () in
      let r = f x in
      let dt = now () -. t0 in
      add t total dt;
      Option.iter (fun name -> sample t name (dt *. 1e6)) each;
      r
