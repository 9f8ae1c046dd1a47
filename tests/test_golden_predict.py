"""Report bytes of ``finemw predict``, pinned by sha256 of stdout and the exit code.

Every setting is run (``cm_split_anticyc`` with both root numbers) on two rank
tables of its growth kind, in both formats, with and without ``--question``;
``cm_inert_anticyc`` is also run with ``--parity-check`` (and one other
setting, where the flag must be ignored).  The second e-table has e_1 = 0, so
``heegner_bdp`` on it exits 3 with nothing on stdout.  A rank kind that does
not match the setting exits 2.  The digests were recorded while each setting
was still described by three dicts and two if-chains in ``predictors``.
"""

import hashlib

import pytest

from finemw.cli import main

# growth kind -> (rank kind, rank tables at p = 5)
TABLES = {
    "e": ("Z", ("2,6,66", "1,1,61")),  # e = [2, 1, 3] and [1, 0, 3]
    "f": ("O", ("4,8,48", "0,4,4,104")),  # f = [4, 1, 2] and [0, 1, 0, 1]
}

# (setting, root number or None, growth kind)
SETTINGS = (
    ("cm_inert_cyc", None, "f"),
    ("cm_inert_anticyc", None, "f"),
    ("cm_split_single_q", None, "f"),
    ("cm_split_cyc", None, "e"),
    ("cm_split_anticyc", "+1", "e"),
    ("cm_split_anticyc", "-1", "e"),
    ("heegner_bdp", None, "e"),
    ("heegner_fine", None, "e"),
)


def _argv(setting, root, ranks, rank_kind, fmt, question, parity=False):
    argv = ["predict", "--setting", setting, "--p", "5", "--ranks", ranks,
            "--rank-kind", rank_kind, "--format", fmt]
    if root is not None:
        argv += ["--root-number", root]
    if question:
        argv.append("--question")
    if parity:
        argv.append("--parity-check")
    return tuple(argv)


def _cases():
    cases = []
    for setting, root, kind in SETTINGS:
        rank_kind, tables = TABLES[kind]
        for ranks in tables:
            for fmt in ("json", "text"):
                for question in (False, True):
                    cases.append(_argv(setting, root, ranks, rank_kind, fmt, question))
    for ranks in TABLES["f"][1] + ("0,4,24",):  # f = [0, 1, 1] breaks the parity
        for fmt in ("json", "text"):
            for question in (False, True):
                cases.append(_argv("cm_inert_anticyc", None, ranks, "O", fmt, question,
                                   parity=True))
    cases.append(_argv("cm_inert_cyc", None, "0,4,24", "O", "json", False, parity=True))
    cases.append(_argv("cm_inert_cyc", None, "2,6,66", "Z", "json", False))
    return cases


CASES = _cases()

# " ".join(argv) -> (exit code, sha256 of stdout)
DIGESTS = {
    "predict --setting cm_inert_cyc --p 5 --ranks 4,8,48 --rank-kind O --format json":
        (0, "aca6fcf2e2c400b7216dfffb846817112cbd07eb35ada99f6c669934d795d348"),
    "predict --setting cm_inert_cyc --p 5 --ranks 4,8,48 --rank-kind O --format json --question":
        (0, "81cfadbedb5a0661d99f600dc61740e972ebe9972e31db0561d6d622b1ee1b92"),
    "predict --setting cm_inert_cyc --p 5 --ranks 4,8,48 --rank-kind O --format text":
        (0, "553809f67a9fcdd32b6d2a06deaef9876d37a5cf540594cc6d8a6629946a11d6"),
    "predict --setting cm_inert_cyc --p 5 --ranks 4,8,48 --rank-kind O --format text --question":
        (0, "09a4113aeef7decf48114cc574a1827c184436adc642c276f702ffed0ebf22be"),
    "predict --setting cm_inert_cyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json":
        (0, "841c594d853e82b3dc1e64a1ec424d0cd6ca059df1b2514670384170a0b26db5"),
    "predict --setting cm_inert_cyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json --question":
        (0, "aea7821eb2d16d7612df0387c0d63c399691e2ee45513212b2f533fe438cbcd8"),
    "predict --setting cm_inert_cyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text":
        (0, "1a77c6995f5cb2fe464d524724b992a1996b36ca3794aec4c9a6a56b792fe005"),
    "predict --setting cm_inert_cyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text --question":
        (0, "805e7d4530663e1d4508e7502d541de54d5d4d35553bebf24d7fe15621912086"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format json":
        (0, "95aad17470c346e9dc22dd69de91371ef38eb7c72b3ec377c9246fdde3d3c96c"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format json --question":
        (0, "91e01501ff57ac4d2cf0fdbc5a07029a34a19917885d0f0cc470ee88528abadf"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format text":
        (0, "4ce7b7580d228d7c83cde87eb8ed0232ccde89f53c3b76f2fad723242a02504c"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format text --question":
        (0, "b444cfb3e9d829f1982331f5c8924956a85013459750e75de7dc11a2a1e74dfb"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json":
        (0, "93dc51c5cd6da16c4a1e65dbb3e167e416eb3dfcce5c4205c1283d7106d65a5f"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json --question":
        (0, "abe13d58b669b32b7359245164d6f11b90eee73b37370377fb2e511e9ce0be5e"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text":
        (0, "8b3ea98eeb8a7ee28cf11353077af337189a140072a714ee5dbd5e2f9f1ad4a4"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text --question":
        (0, "5c665f2a1fc0283158697bdaa3d035b1670b893166491a0ebd44f03330a6127c"),
    "predict --setting cm_split_single_q --p 5 --ranks 4,8,48 --rank-kind O --format json":
        (0, "8493cf3576c9950f050bbf128ec3297194a8770e5cefd5972c400914fb7b63b7"),
    "predict --setting cm_split_single_q --p 5 --ranks 4,8,48 --rank-kind O --format json --question":
        (0, "140241321699058537f31f035c44e25be70feb0ee99389cfc37295231eebe65b"),
    "predict --setting cm_split_single_q --p 5 --ranks 4,8,48 --rank-kind O --format text":
        (0, "d4f48dd1eccdac9ae5225c651202797b28c1db17fc8f096b219287fc57776091"),
    "predict --setting cm_split_single_q --p 5 --ranks 4,8,48 --rank-kind O --format text --question":
        (0, "a3d7e529172b071a2e8d54535754487c236db33924a82ef90ee005ac05871b1c"),
    "predict --setting cm_split_single_q --p 5 --ranks 0,4,4,104 --rank-kind O --format json":
        (0, "1fee5aef4404c642cedb5646e9b6d6448ff5cbfea003e93694c02ffce5e82335"),
    "predict --setting cm_split_single_q --p 5 --ranks 0,4,4,104 --rank-kind O --format json --question":
        (0, "0bd0608072468e460b4bf3b10396d488d64dc1de824a1c4d374acd93ba90c44e"),
    "predict --setting cm_split_single_q --p 5 --ranks 0,4,4,104 --rank-kind O --format text":
        (0, "46d7eee54fe02302901a20c2a89e1dfee1955d9916b8914da45e836a02e7ecc0"),
    "predict --setting cm_split_single_q --p 5 --ranks 0,4,4,104 --rank-kind O --format text --question":
        (0, "7217613831a02f3ddbf64a368b949202146651374a27730861ed854df5b34131"),
    "predict --setting cm_split_cyc --p 5 --ranks 2,6,66 --rank-kind Z --format json":
        (0, "f1b8c0b51075bfd3c717970d1d2b2f3777e03b4e73c4067bac1c5a7f05af5d69"),
    "predict --setting cm_split_cyc --p 5 --ranks 2,6,66 --rank-kind Z --format json --question":
        (0, "a840d27f35f44b450eff2038b2d301a1437047d38a554b168d53f7c6cbc1eedb"),
    "predict --setting cm_split_cyc --p 5 --ranks 2,6,66 --rank-kind Z --format text":
        (0, "77815875acfb34227ffb94cf19049574c4648e8aea584d6d5afd118ed5eae5b1"),
    "predict --setting cm_split_cyc --p 5 --ranks 2,6,66 --rank-kind Z --format text --question":
        (0, "0bb1c7458dd55f2a4f484cd5dee10fc80a113745df6dc255ceb2cd69d5a0119d"),
    "predict --setting cm_split_cyc --p 5 --ranks 1,1,61 --rank-kind Z --format json":
        (0, "c0a7db99cb8f478579be674162f5c336872936ff9a6600bbdf56522db6c82a87"),
    "predict --setting cm_split_cyc --p 5 --ranks 1,1,61 --rank-kind Z --format json --question":
        (0, "89f7adfcfb708411d2a1f96c5ce1f28b8de2f094813e67679fe3be0dd6247c7c"),
    "predict --setting cm_split_cyc --p 5 --ranks 1,1,61 --rank-kind Z --format text":
        (0, "4aaef518253eb3bcc6133cf3f645efd62ccc8f1f8febe0186c31a1246a994a07"),
    "predict --setting cm_split_cyc --p 5 --ranks 1,1,61 --rank-kind Z --format text --question":
        (0, "e0a3c7ed02a6d83c14ff7693325d515c977970196ee52c18e71f016dc2e2db6a"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format json --root-number +1":
        (0, "773dc7eeb057aad0bbd57243ef485b5601c3622d969a81269577c1492fddb534"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format json --root-number +1 --question":
        (0, "7837e231333400e41e2e58971fa477a3d5cb4420e81fa63978f19b56b14adea6"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format text --root-number +1":
        (0, "24dc6c0c6f5af81f5a5ea6590519b9a6f9d20d5fec81219ed5309c6e4397c112"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format text --root-number +1 --question":
        (0, "5721a9881d1106eb12139c7f6f569737571016bc672eb8fbb70f94b13d6e31e7"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format json --root-number +1":
        (0, "24d66fd8227c53daf6fcddc3fbc2865d59172601e57fa850f1fb63fe95311efb"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format json --root-number +1 --question":
        (0, "4eccb6bcbc44008cbd8f23d939f788da910350250da5c0e1d8415e3434e07d84"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format text --root-number +1":
        (0, "89e527cd335fc7d842724bee461c1a5f6002d447008942f69fdfbd0a0c2fb05a"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format text --root-number +1 --question":
        (0, "c6184d0604a4e3c3ca283f50b340b2f52bdb0cb61931041f5fd2e5fec14f8d3c"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format json --root-number -1":
        (0, "3ccb48a90a8c60123ab71343a846663988af3dd617feae3bd25b8d8025424928"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format json --root-number -1 --question":
        (0, "f6338f5c9ce22f809a8838fd1697b326d384e45fbff2949ef125633ce3df9d03"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format text --root-number -1":
        (0, "79819b9e726517344796a465234c4e4a6e476eeb71deaa98568afdbcb83f472e"),
    "predict --setting cm_split_anticyc --p 5 --ranks 2,6,66 --rank-kind Z --format text --root-number -1 --question":
        (0, "c61d5a3400bd4389314a89b86a3593c89f46561d1679b9bc97eb55afabb7ef48"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format json --root-number -1":
        (0, "437971245500a55ca5618ef141dc9bd3bc87bdce33d3b6f7c72fc7672b5fb7d7"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format json --root-number -1 --question":
        (0, "b83b143b47390554943b2c7f8ac501e2bf9a22af2cd6164ca529f1a19dc4ca83"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format text --root-number -1":
        (0, "ce0618d2755e490ccb9ade4cb9ca1acdbabd5e8e4b30b1a9cec826279cc866c5"),
    "predict --setting cm_split_anticyc --p 5 --ranks 1,1,61 --rank-kind Z --format text --root-number -1 --question":
        (0, "dd2afa3e6b7dde1b03713a016c69df6691994b02be40b19880740d3f0f86127a"),
    "predict --setting heegner_bdp --p 5 --ranks 2,6,66 --rank-kind Z --format json":
        (0, "4b94d8dd5aca5a7678bf41b6381ba6e9009006005be39e522b9b9abec7ae7856"),
    "predict --setting heegner_bdp --p 5 --ranks 2,6,66 --rank-kind Z --format json --question":
        (0, "4b1c27f7653f08d27d4d56fc1d43623f18f0b635c449dc41424d6cda730a496e"),
    "predict --setting heegner_bdp --p 5 --ranks 2,6,66 --rank-kind Z --format text":
        (0, "acbdc1eb31e15af3de11b98ea33844dcd1ab2af903b508c0063bb7df9959f4fb"),
    "predict --setting heegner_bdp --p 5 --ranks 2,6,66 --rank-kind Z --format text --question":
        (0, "eb2ff4411ae503cfdf04f181139dd057c4f76006bfcb4c2fe150ed59b1829ec5"),
    "predict --setting heegner_bdp --p 5 --ranks 1,1,61 --rank-kind Z --format json":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "predict --setting heegner_bdp --p 5 --ranks 1,1,61 --rank-kind Z --format json --question":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "predict --setting heegner_bdp --p 5 --ranks 1,1,61 --rank-kind Z --format text":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "predict --setting heegner_bdp --p 5 --ranks 1,1,61 --rank-kind Z --format text --question":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "predict --setting heegner_fine --p 5 --ranks 2,6,66 --rank-kind Z --format json":
        (0, "30388eb6d9ced349accc184415bd13b9ac81d34f0d3d70410b66a25ce65b5f39"),
    "predict --setting heegner_fine --p 5 --ranks 2,6,66 --rank-kind Z --format json --question":
        (0, "0fae968ab45b0efdd6638121e92d1b382b42ca2d2bd1e472e7791c00327f6630"),
    "predict --setting heegner_fine --p 5 --ranks 2,6,66 --rank-kind Z --format text":
        (0, "b3020dca1b12a62940ba8c61985d718ee2190c25c41adae5011df330a5df4f24"),
    "predict --setting heegner_fine --p 5 --ranks 2,6,66 --rank-kind Z --format text --question":
        (0, "9265fdbe12bdbd2ea8306e609218483ad61392c47279d2984cda1d1b39cff5a9"),
    "predict --setting heegner_fine --p 5 --ranks 1,1,61 --rank-kind Z --format json":
        (0, "c69581fcceeb317eac81e86a0c0e026842c238cc865d016ca5482cb85a334d13"),
    "predict --setting heegner_fine --p 5 --ranks 1,1,61 --rank-kind Z --format json --question":
        (0, "23dd094ab4a5b2591be61173d604263860dc0cdc4538bfb22f4502402ee5a4da"),
    "predict --setting heegner_fine --p 5 --ranks 1,1,61 --rank-kind Z --format text":
        (0, "e5ccabb35867f1c5c60d72c9399416b78d4fe6bc17b3d2d283371bb0ce13ee65"),
    "predict --setting heegner_fine --p 5 --ranks 1,1,61 --rank-kind Z --format text --question":
        (0, "4134c8ce1eaeac2e51761423f87342caf6158fb44a3d4d2273465045c605b1de"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format json --parity-check":
        (0, "497222064ece73642c68c4d74b8831622da60bc5f97d02698f685759ecfdc5f7"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format json --question --parity-check":
        (0, "9715ceb8dc5b2fafaa59baeedecbef97cc487ff4bd24c26e849b3e4989fd4b93"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format text --parity-check":
        (0, "4ce7b7580d228d7c83cde87eb8ed0232ccde89f53c3b76f2fad723242a02504c"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 4,8,48 --rank-kind O --format text --question --parity-check":
        (0, "b444cfb3e9d829f1982331f5c8924956a85013459750e75de7dc11a2a1e74dfb"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json --parity-check":
        (0, "4a9d99149f0b3b0b78696c3a11f8db40a8d64d4b32a8ba1770f7f0d12bde68ef"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format json --question --parity-check":
        (0, "cc6879d64c2e327c8f6e742f3645bdb70c742eb175d30923e3d59890cb9410d2"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text --parity-check":
        (0, "8b3ea98eeb8a7ee28cf11353077af337189a140072a714ee5dbd5e2f9f1ad4a4"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,4,104 --rank-kind O --format text --question --parity-check":
        (0, "5c665f2a1fc0283158697bdaa3d035b1670b893166491a0ebd44f03330a6127c"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,24 --rank-kind O --format json --parity-check":
        (0, "b8e762a3dfac9880d779cd520d50bea451e67dabe91d05be64bb6b308697c3b5"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,24 --rank-kind O --format json --question --parity-check":
        (0, "e51985342a36a034819bab42f1da0dd7ed80189e3c02ce1a24638d29a97f5653"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,24 --rank-kind O --format text --parity-check":
        (0, "c5d2cd00344de41856bc707f8bf8f3061b7d2d6c9f534910c108b88cee8b433a"),
    "predict --setting cm_inert_anticyc --p 5 --ranks 0,4,24 --rank-kind O --format text --question --parity-check":
        (0, "8e94b3a23e4b64f4332334b597d39509bf2f457952c92c2f7d88e001462ce147"),
    "predict --setting cm_inert_cyc --p 5 --ranks 0,4,24 --rank-kind O --format json --parity-check":
        (0, "855e66e3d99f5bfbbbd01f3f1f64791084ff5351dac99dcefccc543e0c060f12"),
    "predict --setting cm_inert_cyc --p 5 --ranks 2,6,66 --rank-kind Z --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_predict_digest(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[" ".join(argv)]
