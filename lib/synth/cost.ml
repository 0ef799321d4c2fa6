module Lang = Armb_litmus.Lang
module Sim_runner = Armb_litmus.Sim_runner
module Platform = Armb_platform.Platform

type platform_cost = { platform : string; cycles : float }

let default_trials = 60
let default_seed = 42

let platforms = Platform.names

(* One compile for the four platforms, and no outcome rendering: only
   the cycles are read. *)
let measure ?(trials = default_trials) ?(seed = default_seed) t =
  let p = Sim_runner.compile t in
  List.map
    (fun cfg ->
      let cycles = Sim_runner.(cycles (simulate ~cfg ~trials ~seed p)) in
      { platform = cfg.Armb_cpu.Config.name; cycles = float_of_int cycles /. float_of_int trials })
    Platform.all

let cheaper_or_equal a b =
  List.for_all
    (fun ca ->
      match List.find_opt (fun cb -> cb.platform = ca.platform) b with
      | None -> true
      | Some cb -> ca.cycles <= cb.cycles)
    a

let pp ppf l =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf c -> Format.fprintf ppf "%s:%.1f" c.platform c.cycles)
    ppf l
