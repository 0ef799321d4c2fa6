(* The JSON layer lives in the leaf library [armb_json]; this alias keeps
   the name [Armb_service.Json] that the benchmark under perfbench/
   refers to. *)
include Armb_json.Json
