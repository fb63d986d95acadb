(** A machine's observation context.

    One record holds every telemetry writer slot — sink, sampler, census,
    flight recorder — and the provider closures the sampler and census
    call.  Each [Sim.Machine.t] owns one and shares it with its harts;
    every instrumentation site reads the slots of the machine it runs on,
    so machines (and fleet sessions, which each own a machine) never see
    each other's telemetry.  A caller arms a layer for a machine by
    filling its slot, and disarms it by emptying the slot.  Empty slots
    cost one field load and one branch where they are read, and no layer
    ever charges simulated cycles. *)

type t = {
  mutable sink : Sink.t option;  (** events, counters, histograms, spans *)
  mutable sampler : Sampler.t option;  (** ticked by [Sim.Cpu.charge] *)
  mutable sampler_provider : (unit -> string list) option;
      (** the current compartment stack, root first; must not charge
          cycles *)
  mutable census : Census.t option;  (** ticked by [Sim.Cpu.charge] *)
  mutable census_provider : (unit -> Census.snapshot) option;
      (** one snapshot of live allocator state; must not charge cycles *)
  mutable flight : Flight.t option;
      (** the armed recorder; its dumps capture [sink] *)
}

val create : unit -> t
(** A context with every slot empty. *)

val ambient : t
(** The context of every machine whose creator passes none.  Only the
    wrappers below and [Sim.Machine.create] name it. *)

val dump : t -> ?details:(string * Util.Json.t) list -> reason:string -> unit -> unit
(** The instrumentation-site entry point of the flight recorder: records
    a dump on [t]'s recorder, capturing [t]'s sink.  No-op when no
    recorder is armed; never raises. *)

(** {2 Ambient wrappers}

    Each arms one slot of {!ambient} (and its provider, when given) for
    the duration of the callback and restores the previous values
    afterwards, exception-safe.  They are re-exported as
    [Sink.with_sink], [Sampler.with_sampler] and [Census.with_census]. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
val with_sampler : ?provider:(unit -> string list) -> Sampler.t -> (unit -> 'a) -> 'a
val with_census : ?provider:(unit -> Census.snapshot) -> Census.t -> (unit -> 'a) -> 'a
