include module type of struct include Obs.Json end
