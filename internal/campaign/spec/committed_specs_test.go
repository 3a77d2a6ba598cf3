package spec

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/interleave"
)

// committedSpecPins are the sha256 and length of every artifact the
// committed page specs write, as `cmd/campaign -spec <file> -out <dir>`
// writes them. Pagesim decodes every cell of both grids, so a change to
// the page layout, the scrub pass or the decoder under it that moves a
// single byte fails here.
var committedSpecPins = map[string]map[string]struct {
	sha  string
	size int
}{
	"matrix.json": {
		"page-grid/depth=2,n=18,scrub_period_hours=1.csv":   {"ef9af4d0c9a040e9bd02f06fb34410afe1f11255631dd985f0a230c70a854931", 289},
		"page-grid/depth=2,n=18,scrub_period_hours=1.json":  {"4db22455f8aebb08b552ddb0e812bb638b76c7c4bf67249db7831aeffb08fe10", 427},
		"page-grid/depth=2,n=18,scrub_period_hours=12.csv":  {"7ef38565669148aa578546c45b0aba404c77694b3dc75d057658f85908601788", 290},
		"page-grid/depth=2,n=18,scrub_period_hours=12.json": {"2edf293d0f6eb7f9ac2094bdd3437042a617a1868c7af1325e825bf70d963e5e", 429},
		"page-grid/depth=2,n=18,scrub_period_hours=4.csv":   {"bc298e00e6b1556cd5290a02552aaf3380d6b49f536a1a3ba92650154af429dd", 291},
		"page-grid/depth=2,n=18,scrub_period_hours=4.json":  {"4d8ba9961a18b2c717ef7d6136413720f583c7e6da858c2a81c71d37147d688f", 429},
		"page-grid/depth=2,n=20,scrub_period_hours=1.csv":   {"4d3c52c1fdeaae95e72276602d6e30456003ad94fe77eba7254c2f4850df7979", 258},
		"page-grid/depth=2,n=20,scrub_period_hours=1.json":  {"a3d4f7cd806155a36f42551bddda34d582b50aac6e23e473d37b9dd327814eed", 398},
		"page-grid/depth=2,n=20,scrub_period_hours=12.csv":  {"cacab8996140190868332592016098c06c7ceeabe111471c5fcfd6b5f39f49dd", 260},
		"page-grid/depth=2,n=20,scrub_period_hours=12.json": {"3d5cc41db7b3e91b299e8fb13c90b65f4fed0f6961a35baff45547e7972952b0", 401},
		"page-grid/depth=2,n=20,scrub_period_hours=4.csv":   {"7fa3385c6f520fe6ab9460f7c81203341e145769ae01b93a81e5e1572102c174", 258},
		"page-grid/depth=2,n=20,scrub_period_hours=4.json":  {"d4bdcb20329568eeb01cb5a296f1fe60971c5431bfdaf9a6a6299925a0c8919c", 398},
		"page-grid/depth=4,n=18,scrub_period_hours=1.csv":   {"377d141400b2adf90e3ca78c36a9c51f59bffda441b556663e26b7d192deb288", 292},
		"page-grid/depth=4,n=18,scrub_period_hours=1.json":  {"6dd293879ca997b92573a00c02b053ad41cb3a7ab6f898a2e09bd8740a1155a7", 430},
		"page-grid/depth=4,n=18,scrub_period_hours=12.csv":  {"5bb3b02abc790a9d656a38108dd77600bb445eb7deecce767899fee90b7f85fb", 293},
		"page-grid/depth=4,n=18,scrub_period_hours=12.json": {"a44457551737daf4a5a2108e12b0ffd4a58d868c4ee37a905b7c27468e621aec", 432},
		"page-grid/depth=4,n=18,scrub_period_hours=4.csv":   {"38698914f5824e6cb1684d7f561c8130417fc6f0fb9cf874d2589497b2843b99", 293},
		"page-grid/depth=4,n=18,scrub_period_hours=4.json":  {"ac0e8b4a5eb3297865aedd1a9263b600a4fdf715d3c733dc1c4a08298ad83614", 431},
		"page-grid/depth=4,n=20,scrub_period_hours=1.csv":   {"056d0074fbcc30b3b1237f6b62e8f0536c685e15b71228634fca6fd1600338e3", 259},
		"page-grid/depth=4,n=20,scrub_period_hours=1.json":  {"e83c073ed17a00a68d6805d418823463a1f6fb9f356b9c1980941884d6886fd1", 399},
		"page-grid/depth=4,n=20,scrub_period_hours=12.csv":  {"5d17de0acce6389db5970fb86e9587576ec1d2f4785bf7ef04e258a327414b95", 261},
		"page-grid/depth=4,n=20,scrub_period_hours=12.json": {"b8c880c831ea03b4498ac7b19eb81d6641a08177be137bf4f63630d619802595", 402},
		"page-grid/depth=4,n=20,scrub_period_hours=4.csv":   {"efc49304128f7f5ea63b1f23a89fb950bb1a97c861d5d7a2e012f4805d813a38", 261},
		"page-grid/depth=4,n=20,scrub_period_hours=4.json":  {"8132a28a519b5d37481c54b480f1bce7e97e2f840d7eb350449e3d86ce0bba02", 401},
		"whole-memory-xval.csv":                             {"16a5a9e2dc514690c8ae0db7fe7415d1cde9e10883d40a602a06410e4f9ff46b", 212},
		"whole-memory-xval.json":                            {"0203984ba9e568afa36c0f9c14ebcd11e8840e2ce951f2bb16020b42fc52b0c3", 416},
	},
	"detection.json": {
		"detection-grid/depth=2,detection=immediate,scrub_period_hours=2.csv":  {"7b856a2acb5910214635d3e6953aef55fb277185f5a5d96a03cab829c08346d6", 257},
		"detection-grid/depth=2,detection=immediate,scrub_period_hours=2.json": {"ca34028811dfff2c69235a88c46979db2e0e4dc76d94ab0c9223f330f636edeb", 395},
		"detection-grid/depth=2,detection=immediate,scrub_period_hours=8.csv":  {"aa7ad0cc0b4ed1da67fce93b1b1ff01edd1728a940975eaf006974e86966fef1", 256},
		"detection-grid/depth=2,detection=immediate,scrub_period_hours=8.json": {"51fa8b87d67c39aa2964e1a19ba4f909dfc61baa5925d86df75173717f590bf9", 394},
		"detection-grid/depth=2,detection=latency,scrub_period_hours=2.csv":    {"118994977b8335cae57ed46e3c5e74109416bb08f5e9a1dc96e14a87d69335a6", 142440},
		"detection-grid/depth=2,detection=latency,scrub_period_hours=2.json":   {"15227c4d0a0d03f077720afb99b2f0c787d5948ba6c746e5d295a4c5775393dd", 336748},
		"detection-grid/depth=2,detection=latency,scrub_period_hours=8.csv":    {"e554a6eebd925dda56e098f0f0597c2685d9b9f226dc497e4b07d8b255049906", 145879},
		"detection-grid/depth=2,detection=latency,scrub_period_hours=8.json":   {"ad25fcb649cca6151df11215dc85d4d73b03c20a96121afce6bc40449506490c", 345015},
		"detection-grid/depth=2,detection=scrub,scrub_period_hours=2.csv":      {"e2551bcfb00a3ce6a8309065ce169102b67bf9e9f16bbdba6400cad82c2e7fdd", 137038},
		"detection-grid/depth=2,detection=scrub,scrub_period_hours=2.json":     {"09a276e81aea24deff36c19ca7cc66eef73eebd28052e1bf0d37c023bf353ace", 278573},
		"detection-grid/depth=2,detection=scrub,scrub_period_hours=8.csv":      {"75876f3230b8b30f0717f32ef13fe3083e628504c357c1e4acc516c6c13e3faf", 120279},
		"detection-grid/depth=2,detection=scrub,scrub_period_hours=8.json":     {"3a77a7caefedfed2cfef25b54be26e74a15e3618612621220ae6d08d5df0bad7", 245698},
		"detection-grid/depth=4,detection=immediate,scrub_period_hours=2.csv":  {"2f40db0124acfca821b00413c144e35c3b34a5b64ddb65bd4593ca97d1321fcd", 256},
		"detection-grid/depth=4,detection=immediate,scrub_period_hours=2.json": {"86d7cc427f36e0762652c41c2f8296a9520f51e58bb4dcf93a89ff2090a983be", 394},
		"detection-grid/depth=4,detection=immediate,scrub_period_hours=8.csv":  {"cae19bfe630a478ed8684e7a63e7a72de416d3834b5cfb7896c3f19f2347950c", 255},
		"detection-grid/depth=4,detection=immediate,scrub_period_hours=8.json": {"de2a5fda968ede092879c97e8b4770e05f625e29de29648a33e7d50dc86a9a1c", 393},
		"detection-grid/depth=4,detection=latency,scrub_period_hours=2.csv":    {"4a277c9c26a4673b95cdca6ada76cac8e6e79a301ecd0c841109ebfa261ab471", 274668},
		"detection-grid/depth=4,detection=latency,scrub_period_hours=2.json":   {"09581b1bcfdb2d6f66d9f3fe441ea4ba304bbd99c399927d86cb67ef27791a89", 649652},
		"detection-grid/depth=4,detection=latency,scrub_period_hours=8.csv":    {"30da0897a13e754e75de644fa36ded963b1081849746c953af2bb154313ca93d", 280865},
		"detection-grid/depth=4,detection=latency,scrub_period_hours=8.json":   {"759bf365c80d244f478f8e2a3104e97caf55e1b3682e4ead2e90b57c8a52c1c1", 664213},
		"detection-grid/depth=4,detection=scrub,scrub_period_hours=2.csv":      {"b5851730c9897b9fd4be3972c754dea52c037a678879ca2b413d1f7b25cf4073", 267272},
		"detection-grid/depth=4,detection=scrub,scrub_period_hours=2.json":     {"cfc5f7181098736cf1596d853fad1bf404f75b3bc4220d719e89c8dc130fc5fb", 543583},
		"detection-grid/depth=4,detection=scrub,scrub_period_hours=8.csv":      {"fba56da1234e5e4b4f59f3f8ef19e2930ea80b393f8a772658cc4431662b2b21", 227531},
		"detection-grid/depth=4,detection=scrub,scrub_period_hours=8.json":     {"0a14c7da7c89f73f0bfdd40f8819d5e10c3a0ef4d8ec72461fb050c32319bbd3", 464946},
	},
}

// TestCommittedPageSpecsArtifacts runs examples/campaign/matrix.json
// and detection.json in process, checks their expectations and pins
// the bytes of every artifact they write, and the set of artifact
// files itself.
func TestCommittedPageSpecsArtifacts(t *testing.T) {
	for name, want := range committedSpecPins {
		t.Run(name, func(t *testing.T) {
			f, err := Load(filepath.Join("..", "..", "..", "examples", "campaign", name))
			if err != nil {
				t.Fatal(err)
			}
			built, err := f.BuildAll()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, b := range built {
				cres, err := campaign.Run(b.Scenario, b.EngineConfig(f))
				if err != nil {
					t.Fatal(err)
				}
				for _, err := range b.CheckExpectations(cres) {
					t.Error(err)
				}
				if err := b.WriteArtifacts(dir, cres); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				if err != nil {
					return err
				}
				rel = filepath.ToSlash(rel)
				got = append(got, rel)
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				w, ok := want[rel]
				if sum := fmt.Sprintf("%x", sha256.Sum256(data)); !ok || sum != w.sha || len(data) != w.size {
					t.Errorf("%s drifted: sha256 %s (%d bytes), want %s (%d bytes)", rel, sum, len(data), w.sha, w.size)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("wrote %d artifacts %v, want %d", len(got), got, len(want))
			}
		})
	}
}

// TestBuildAllRefusesOversizedPage: an interleave entry whose page
// exceeds interleave.MaxStoredSymbols fails to build, so no executor
// runs a worker for it.
func TestBuildAllRefusesOversizedPage(t *testing.T) {
	f, err := Parse([]byte(`{"seed": 1, "scenarios": [{"name": "huge", "kind": "interleave",
	  "params": {"depth": 1099511627776, "lambda_bit_per_hour": 1e-9, "horizon_hours": 1, "trials": 1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.BuildAll()
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(interleave.MaxStoredSymbols)) {
		t.Errorf("BuildAll: err %v, want a refusal naming the %d-symbol limit", err, interleave.MaxStoredSymbols)
	}
}
