"""Golden digests of the Monte Carlo reports.

Each digest is the sha256 of the stdout of one ``padiczoo`` command at
3000 samples, k = 10 and seed 7.  Any change to the sampled stream, the
estimators or the report format changes a digest and fails here.
"""

import pytest

from conftest import assert_cli_golden

GOLDEN = {
    (2, "haar"): "8f09529dd29bf17e66dedcd5e31b37db980d4a6800b059fdd3511e00f7849c36",
    (2, "Y0"): "b3ad37d9d370a17d2421ed4c6320eb593b2a60e7f7cab217a5e4fc1a0c60aa5e",
    (2, "E-prefix"): "971a886647aa0f55052a3eb42c0fa5c93ceed913e8dc85f588545c5da99fc17a",
    (2, "slln"): "4cf60a4d82ff303c35ad7bbeb532e071cdb2eb5e87c0937a6802ef9d4383ae4e",
    (3, "haar"): "1c801a7e7df6244485ee7153d4beee94e5e00311a27303390082c1b2680e5b79",
    (3, "Y0"): "1e1489fa7c8704c8be07728f06a2a31070e3c6e032b9732b1fb894831df95c0e",
    (3, "E-prefix"): "22c927d9da301dda7bbfb8ab8102b74b50e6aad2562caee2416772d2b10f6a43",
    (3, "slln"): "8a93319bc4148bb731ae2d40c397cb31056ccf1cc1369c460d579f347f0015ec",
    (101, "haar"): "e596b03610968c06b8e1a11f67c910086e74f888a12cec2b668e72a43cc7820e",
    (101, "Y0"): "5a0e6885716f53c7e83440f83c6bff600758d4d439dc5b6e9a4a5bed5215873c",
    (101, "E-prefix"): "fd3e0c702748d78e081dba179d106662f9d66f9b2b0530f10035ef8e623140a2",
    (101, "slln"): "0574b8775f7d3dc693f7aff9b56ad0134fdfe63a5226b3850a81a83064734764",
}


@pytest.mark.parametrize("p, command", sorted(GOLDEN))
def test_haar_output_matches_golden(capsys, p, command):
    argv = ["--prime", str(p), "--seed", "7"]
    if command == "haar":
        argv += ["haar"]
    else:
        argv += ["verify", "haar", command]
    argv += ["--samples", "3000", "--k", "10"]
    assert_cli_golden(capsys, [argv], GOLDEN[p, command], "0")
