(* GC pauses of this process, read back from OCaml 5 runtime events.  A
   pause is one outermost minor collection or major slice.  Recording is
   resumed only around traced passes. *)

module E = Runtime_events

type t = {
  cursor : E.cursor;
  callbacks : E.Callbacks.t;
  pauses_ms : float list ref;
}

let is_pause = function E.EV_MINOR | E.EV_MAJOR_SLICE -> true | _ -> false

let create () =
  E.start ();
  E.pause ();
  let depth = ref 0 and began = ref 0L and pauses_ms = ref [] in
  let runtime_begin _ ts phase =
    if is_pause phase then begin
      if !depth = 0 then began := E.Timestamp.to_int64 ts;
      incr depth
    end
  in
  let runtime_end _ ts phase =
    if is_pause phase && !depth > 0 then begin
      decr depth;
      if !depth = 0 then
        let ns = Int64.sub (E.Timestamp.to_int64 ts) !began in
        pauses_ms := (Int64.to_float ns /. 1e6) :: !pauses_ms
    end
  in
  {
    cursor = E.create_cursor None;
    callbacks = E.Callbacks.create ~runtime_begin ~runtime_end ();
    pauses_ms;
  }

let poll t = ignore (E.read_poll t.cursor t.callbacks None)

let recording t f =
  E.resume ();
  Fun.protect
    ~finally:(fun () ->
      poll t;
      E.pause ())
    f

let pauses_ms t = !(t.pauses_ms)
