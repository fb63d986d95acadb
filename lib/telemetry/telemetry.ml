(* The library's public surface.  The ambient wrappers live in [Obs],
   which depends on the modules whose slots it holds, and are re-exported
   here under the modules they arm. *)

module Event = Event
module Ring = Ring
module Histogram = Histogram
module Span = Span
module Sink = struct
  include Sink

  let with_sink = Obs.with_sink
end

module Sampler = struct
  include Sampler

  let with_sampler = Obs.with_sampler
end

module Census = struct
  include Census

  let with_census = Obs.with_census
end

module Flight = Flight
module Obs = Obs
module Attribution = Attribution
module Metrics = Metrics
module Export = Export
