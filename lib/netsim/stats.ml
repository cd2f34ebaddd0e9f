module Counters = struct
  type t = Dip_obs.Metrics.t

  let get = Dip_obs.Metrics.counter_value
  let to_list = Dip_obs.Metrics.written_counters
end
