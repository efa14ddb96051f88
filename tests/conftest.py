"""Helpers shared by the test modules."""

from layertails.network_model import NetworkConfig


def write_ini(path, config: NetworkConfig) -> None:
    """Write config as the [network] INI file parse_config_file reads:
    NetworkConfig.to_dict's keys, lists comma-joined, bools lower case."""
    lines = ["[network]"]
    for key, value in config.to_dict().items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key} = {value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n\n")
