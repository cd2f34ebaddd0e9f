type t = {
  epoch : int;
  registry : Dip_core.Registry.t;
  mk_env : int -> Dip_core.Env.t;
  verify : (Dip_core.Packet.view -> (unit, string) result) option;
  check : (Dip_core.Registry.t -> (unit, string) result) option;
}

let v ?verify ?check ~registry ~mk_env () =
  { epoch = 0; registry; mk_env; verify; check }

let next ?check ?mk_env t =
  {
    epoch = t.epoch + 1;
    registry = t.registry;
    mk_env = Option.value mk_env ~default:t.mk_env;
    verify = None;
    check = (match check with Some _ -> check | None -> t.check);
  }

let validate t =
  match t.check with
  | None -> Ok ()
  | Some check -> (
      match check t.registry with
      | Ok () -> Ok ()
      | Error e ->
          Error (Printf.sprintf "snapshot epoch %d rejected: %s" t.epoch e))

let publish t ~via =
  match validate t with
  | Ok () ->
      via t;
      Ok ()
  | Error _ as err -> err
