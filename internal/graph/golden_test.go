package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// digest hashes N, Offsets and Neigh as little-endian words, so two
// graphs share a digest only when their CSR arrays are bit-identical.
func digest(g *CSR) string {
	h := sha256.New()
	var b [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	word(g.N)
	for _, v := range g.Offsets {
		word(v)
	}
	for _, v := range g.Neigh {
		word(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkloadGraphDigests pins the CSR arrays of every graph the GAP
// workloads build: the 18 generator calls in workloads' gapGraph (five
// inputs at profile and eval scale) and tcGraph (four inputs at both
// scales), each directed and after Undirected. The simulated results of
// every GAP row depend on these arrays word for word, so a construction
// change that alters any of them must show up here rather than as a moved
// cycle count. The digests were taken from the per-node builder the flat
// CSR builder replaced.
func TestWorkloadGraphDigests(t *testing.T) {
	cases := []struct {
		name       string
		build      func() *CSR
		directed   string
		undirected string
	}{
		// gapGraph, profile scale.
		{"kron(12,12,26)", func() *CSR { return Kron(12, 12, 26) },
			"c317dd5d6b9fa80351a9a3899b160fd807885f093ecd67e9dda5e3941d354fc4",
			"d1e1f61d1c0ef534c063684486ef54fd740c651c3a8c213fbaf4e74e5cbe3475"},
		{"urand(4096,12,26)", func() *CSR { return URand(4096, 12, 26) },
			"2babb3c1432b32783232b1a285014b063a84ed0bb512193773b8ab4db1eb31d8",
			"8224c1739063ea7e7ab18f0b97c015e68c6e52f806fdaf75cbb419b8fc70cb08"},
		{"twitter(4096,12,60)", func() *CSR { return Twitter(4096, 12, 60) },
			"4f455792c69795e33ef02e4f88ced15574773b6d5531127c78d4cbeebe584f22",
			"652b87d7766b0469f4d9ec3dd23b310da51af5550698d6cc8b44e1452acc4328"},
		{"road(64,6)", func() *CSR { return Road(64, 6) },
			"9cf26021c4c0ca58c6eb3069b8143ffbaa6f34130b2cae6de8986fcdc1e3404e",
			"318195509f82747ee3b38d7f2f1ab7a26fe707a5a2f5322154fc9776ef49701d"},
		{"web(4096,10)", func() *CSR { return Web(4096, 10) },
			"4755edf421868bc0b3b0ec659f0a663e17ac7b3f38c054bbc5ab48a920aa4316",
			"84aaa1f7fd1cd7bba004b7ab49e017f5c43d3509e43ae5e421c1b368e70067e6"},
		// gapGraph, eval scale.
		{"kron(13,16,27)", func() *CSR { return Kron(13, 16, 27) },
			"8dbea77890a5e3a4ec9516b29fdbb8b5cd08cb181f2e19c6d6ae07a35f765a40",
			"58969b55d98c79638ccd6d7158ae29896f92f49a3938a4cbdfb420d7ad1c5dac"},
		{"urand(8192,16,27)", func() *CSR { return URand(8192, 16, 27) },
			"04ed7c9331358a5c3dd6d8ba250277e06f88822d732b94fec3393e3dbc048382",
			"49d2c695cbad1d4eecb15b922c081f4e13693cfd72f2999bcf47d1a08af1a95c"},
		{"twitter(8192,16,61)", func() *CSR { return Twitter(8192, 16, 61) },
			"54dddb04a873cb5425dba9b253193947f85111f6a4543c9214afc322d2017256",
			"93a7b95cd32613da5b04fe8b66f18c5ac2774269aa8fff73efa9a640045dba88"},
		{"road(96,7)", func() *CSR { return Road(96, 7) },
			"1aab5591ee6bd3682adc96fe573120c049b24082fed8d8cf0986c4d27948eee8",
			"711225d2be7dff4164c86311fb559f8ba1a555a99fa2219464fbaaa64b7c2418"},
		{"web(8192,11)", func() *CSR { return Web(8192, 11) },
			"26f5fae3c784f31f393f8ae0dc98cb8e23f359da0c1928ea2aa724632c90a544",
			"ae7d01a7876a962c2189bc0ae89b9a2695eece6b3d4c5e73017734b308233c04"},
		// tcGraph, profile scale.
		{"kron(9,8,26)", func() *CSR { return Kron(9, 8, 26) },
			"d7622d768f8fc1d90fc98b31569db63a3f2ce9e20194cee042cfa708232e6d87",
			"975aced2ae28cc0145c78209a8481077fd8c835cde566ee0097db306ddaf410d"},
		{"urand(512,8,26)", func() *CSR { return URand(512, 8, 26) },
			"7181b77bff6f972705def8b9954edad108da13a20cd507e64b1422d10ab65661",
			"02497d6a7618f0dac3a2d0e438e322103c5461e42721d3f279b52868e976759b"},
		{"twitter(512,8,60)", func() *CSR { return Twitter(512, 8, 60) },
			"d4ea44adcee03038a666f2db4fa30857fdb99c69bcff22a92b03bebc0c9289a4",
			"dda641c7ab5cb7c282154f402ea1c7ba6a0a39ab1971c89ff63fd09f794dfc74"},
		{"road(24,6)", func() *CSR { return Road(24, 6) },
			"daba44835e992d5225e8e8ecc10d3af04c7d86d55472b88b38c27e83a18ca25a",
			"93b8f1fc6785e06f3af7f9f8cd12dc8d9cccc6cfb42793dd0b2094b2b341ac59"},
		// tcGraph, eval scale.
		{"kron(11,12,27)", func() *CSR { return Kron(11, 12, 27) },
			"44bf33cae42ca1f0ba658936a9bf4b34e7d2eac96d52cd6980418e3a30c899db",
			"c058a716ff5e740efa79c983721f2f0bfd98dbc6c7f4e49beb97c60bc1de73d4"},
		{"urand(2048,12,27)", func() *CSR { return URand(2048, 12, 27) },
			"6f537afd5eb2446e14a573c8b216f14b4d3855d53fa5f071a07d32e7ff9c8468",
			"57f2877d645b28ee027aa982717e1aaa8b5b3727d3c45b1b842e67503650ea77"},
		{"twitter(2048,12,61)", func() *CSR { return Twitter(2048, 12, 61) },
			"ebcd693cd22086486d5a92f3869054e3d01b13f57f29d50391180f4ed725be2b",
			"b77e98982a9cf7ece07a5225e006bfb1c36497a0c46fc02a9a5d3f85f0ae79ac"},
		{"road(48,7)", func() *CSR { return Road(48, 7) },
			"db66771788451f9a5af2980be2d582c964395082174967fd57f3510f797843c1",
			"b3521bcb93a21606e24d8d6ca6cc0f83ff3a0be81a0e507589f02da355df5f4e"},
	}
	for _, c := range cases {
		g := c.build()
		u := Undirected(g)
		if cap(u.Neigh) != len(u.Neigh) {
			// Workloads keep every undirected input for the process's life.
			t.Errorf("%s undirected: Neigh capacity %d for %d edges", c.name, cap(u.Neigh), len(u.Neigh))
		}
		for _, v := range []struct {
			kind string
			g    *CSR
			want string
		}{{"directed", g, c.directed}, {"undirected", u, c.undirected}} {
			if err := v.g.Validate(); err != nil {
				t.Errorf("%s %s: %v", c.name, v.kind, err)
			}
			if got := digest(v.g); got != v.want {
				t.Errorf("%s %s: digest %s, want %s", c.name, v.kind, got, v.want)
			}
		}
	}
}
