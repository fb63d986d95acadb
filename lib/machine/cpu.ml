type t = {
  id : int;
  cost : Cost.t;
  mutable pkru : Mpk.Pkru.t;
  mutable trap_flag : bool;
  mutable cycles : int;
  mutable wrpkru_retired : int;
  mutable pkru_epoch : int;
  retired_acc : int ref;
  obs : Telemetry.Obs.t;
  tlb : Tlb.t;
}

let create ?(cost = Cost.default) ?(id = 0) ?retired ~obs () =
  let retired_acc = match retired with Some r -> r | None -> ref 0 in
  {
    id;
    cost;
    pkru = Mpk.Pkru.all_enabled;
    trap_flag = false;
    cycles = 0;
    wrpkru_retired = 0;
    pkru_epoch = 0;
    retired_acc;
    obs;
    tlb = Tlb.create ();
  }

(* Out of line, so that with neither armed [charge] is three loads and
   two tests, with nothing kept live across a call. *)
let tick_observers t (obs : Telemetry.Obs.t) n =
  (match obs.sampler with
  | None -> ()
  | Some sampler -> Telemetry.Sampler.tick sampler ~provider:obs.sampler_provider n);
  match obs.census with
  | None -> ()
  | Some census ->
    Telemetry.Census.tick census ~provider:obs.census_provider ~sink:obs.sink ~cpu:t.id n

(* Every retired cycle flows through here, so this is where the sampling
   profiler and the heap census armed in the machine's observation
   context tick and where the machine-wide retired accumulator grows
   (keeping [Machine.total_cycles] O(1) instead of a fold over harts).
   The ticks charge nothing back, so sampled/censused and plain runs
   retire identical cycle counts. *)
let charge t n =
  t.cycles <- t.cycles + n;
  t.retired_acc := !(t.retired_acc) + n;
  match t.obs with
  | { Telemetry.Obs.sampler = None; census = None; _ } -> ()
  | obs -> tick_observers t obs n

(* All intentional PKRU updates come through here so the epoch advances
   and cached permission masks in the hart's TLB go stale.  (Direct
   [t.pkru <- ...] stores are still caught by the TLB's raw-value
   comparison; the epoch is the documented invalidation protocol.) *)
let set_pkru t v =
  t.pkru <- v;
  t.pkru_epoch <- t.pkru_epoch + 1

let wrpkru t v =
  charge t t.cost.Cost.wrpkru;
  t.wrpkru_retired <- t.wrpkru_retired + 1;
  set_pkru t v;
  match t.obs.Telemetry.Obs.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.emit sink ~ts:t.cycles ~cpu:t.id
      (Telemetry.Event.Wrpkru { value = Mpk.Pkru.to_int v })

let rdpkru t =
  charge t t.cost.Cost.rdpkru;
  t.pkru

let cycles t = t.cycles

let reset_cycles t =
  t.retired_acc := !(t.retired_acc) - t.cycles;
  t.cycles <- 0
