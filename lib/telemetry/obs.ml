(* One machine's observation context: the sink, sampler, census and
   flight-recorder slots plus the two provider closures.  A machine owns
   one and shares it with its harts, so every instrumentation site reads
   the slots of the machine it runs on and two machines never see each
   other's telemetry.  Filling a slot arms that layer for the machine;
   an empty slot costs one field load and one branch where it is read. *)

type t = {
  mutable sink : Sink.t option;
  mutable sampler : Sampler.t option;
  mutable sampler_provider : (unit -> string list) option;
  mutable census : Census.t option;
  mutable census_provider : (unit -> Census.snapshot) option;
  mutable flight : Flight.t option;
}

let create () =
  {
    sink = None;
    sampler = None;
    sampler_provider = None;
    census = None;
    census_provider = None;
    flight = None;
  }

(* The context of every machine whose creator passes none.  The [with_*]
   wrappers below arm it around code that runs on already-built
   machines. *)
let ambient = create ()

let dump t ?(details = []) ~reason () =
  match t.flight with
  | None -> ()
  | Some recorder -> ignore (Flight.record recorder ~sink:t.sink ~reason ~details)

let with_sink sink f =
  let previous = ambient.sink in
  ambient.sink <- Some sink;
  Fun.protect ~finally:(fun () -> ambient.sink <- previous) f

let with_sampler ?provider sampler f =
  let previous = ambient.sampler and previous_provider = ambient.sampler_provider in
  ambient.sampler <- Some sampler;
  if Option.is_some provider then ambient.sampler_provider <- provider;
  Fun.protect
    ~finally:(fun () ->
      ambient.sampler <- previous;
      ambient.sampler_provider <- previous_provider)
    f

let with_census ?provider census f =
  let previous = ambient.census and previous_provider = ambient.census_provider in
  ambient.census <- Some census;
  if Option.is_some provider then ambient.census_provider <- provider;
  Fun.protect
    ~finally:(fun () ->
      ambient.census <- previous;
      ambient.census_provider <- previous_provider)
    f
